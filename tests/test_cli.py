import json

import pytest

from ensemble_oc.cli import main
from ensemble_oc.reporting import load_report_schema, validate_schema


def run_cli(*args):
    return main(list(args))


def test_catalog_command(capsys):
    assert run_cli("catalog") == 0
    out = capsys.readouterr().out
    assert "ugv-stochastic" in out and "pde-nominal" in out


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "run1"
    code = run_cli(
        "solve", "--problem", "ugv-stochastic", "--M", "20", "--seed", "7",
        "--dt", "0.5", "--out", str(out),
    )
    assert code == 0
    for name in ("controls.csv", "ensemble_stats.csv", "report.json", "solve_log.txt"):
        assert (out / name).exists()
    header = (out / "controls.csv").read_text().splitlines()[0]
    assert header == "t,u_1,u_2"
    stats_header = (out / "ensemble_stats.csv").read_text().splitlines()[0]
    assert stats_header.startswith("t,mean_1") and ",std_1" in stats_header


def test_solve_deterministic_reruns(tmp_path):
    args = ("solve", "--problem", "ugv-stochastic", "--M", "20", "--seed", "7", "--dt", "0.5")
    run_cli(*args, "--out", str(tmp_path / "a"))
    run_cli(*args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a/controls.csv").read_bytes() == (tmp_path / "b/controls.csv").read_bytes()
    assert (tmp_path / "a/ensemble_stats.csv").read_bytes() == (
        tmp_path / "b/ensemble_stats.csv"
    ).read_bytes()


def test_report_json_matches_schema(tmp_path):
    out = tmp_path / "run"
    run_cli("solve", "--problem", "ugv-nominal", "--dt", "0.5", "--out", str(out))
    report = json.loads((out / "report.json").read_text())
    validate_schema(report, load_report_schema())
    assert report["problem"]["source"] == "ugv-nominal"
    assert report["continuity_residual"] <= 1e-6


def _ugv_file_doc():
    return {
        "model": {"type": "ugv_differential_drive", "random_radius": True},
        "t_f": 2.0,
        "dt": 0.25,
        "segments": 2,
        "scheme": "rk4",
        "M": 8,
        "seed": 3,
        "initial": [
            {"dist": "uniform", "lo": -0.05, "hi": 0.05},
            {"dist": "uniform", "lo": -0.05, "hi": 0.05},
            {"dist": "dirac", "value": 0.0},
            {"dist": "uniform", "lo": 1.0, "hi": 1.5},
        ],
        "cost": {
            "terminal_weights": [1.0, 1.0, 0.0, 0.0],
            "terminal_target": [3.0, 3.0, 0.0, 0.0],
            "control_energy": 0.01,
        },
        "control_bounds": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    }


def test_problem_file_roundtrip(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_ugv_file_doc()))
    out = tmp_path / "run"
    code = run_cli("solve", "--problem-file", str(path), "--out", str(out))
    assert code in (0, 2)
    assert (out / "report.json").exists()


def test_problem_file_bad_bounds_names_key(tmp_path, capsys):
    doc = {
        "model": {"type": "ugv_differential_drive"},
        "t_f": 1.0,
        "dt": 0.25,
        "M": 1,
        "initial": [{"dist": "dirac", "value": 0.0}] * 3,
        "cost": {"terminal_weights": [1, 1, 0], "terminal_target": [3, 3, 0]},
        "control_bounds": {"lo": [1.0, 1.0], "hi": [-1.0, -1.0]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = run_cli("solve", "--problem-file", str(path), "--out", str(path.parent / "o"))
    assert code == 1
    assert "control_bounds" in capsys.readouterr().err


def test_problem_file_missing_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"type": "ugv_bicycle"}}))
    code = run_cli("solve", "--problem-file", str(path), "--out", str(path.parent / "o"))
    assert code == 1
    assert "t_f" in capsys.readouterr().err


def test_gradcheck_long_horizon_bicycle(tmp_path):
    # 1000-step steering benchmark: backward sweep against batched central FD
    out = tmp_path / "g"
    code = run_cli("gradcheck", "--problem", "ugv-bicycle", "--out", str(out))
    assert code == 0
    summary = json.loads((out / "gradcheck_summary.json").read_text())
    assert summary["n_coordinates"] == 2000
    assert summary["max_abs_error"] <= 1e-5


def test_gradcheck_small_pde(tmp_path):
    # 16 spatial nodes keep explicit stepping stable at dt = 0.002
    out = tmp_path / "g"
    code = run_cli(
        "gradcheck", "--problem", "pde-nominal", "--M", "2", "--seed", "5",
        "--n-nodes", "16", "--dt", "0.002", "--t-f", "0.2", "--out", str(out),
    )
    assert code == 0
    summary = json.loads((out / "gradcheck_summary.json").read_text())
    assert summary["passed"] is True
    assert summary["max_abs_error"] <= 1e-5
    lines = (out / "gradcheck.csv").read_text().splitlines()
    assert lines[0] == "t,channel,backward,fd,abs_error"
    assert len(lines) == 1 + summary["n_coordinates"]


def test_gradcheck_multi_shooting(tmp_path):
    # two shooting segments: every segment's controls go through the batched FD
    out = tmp_path / "g"
    code = run_cli(
        "gradcheck", "--problem", "ugv-stochastic", "--M", "20", "--segments", "2",
        "--out", str(out),
    )
    assert code == 0
    summary = json.loads((out / "gradcheck_summary.json").read_text())
    assert summary["passed"] is True
    assert summary["n_coordinates"] == 400


def test_verify_flow_and_grid_mismatch(tmp_path, capsys):
    out = tmp_path / "solve"
    run_cli("solve", "--problem", "ugv-nominal", "--dt", "0.5", "--out", str(out))
    vout = tmp_path / "verify"
    code = run_cli(
        "verify", "--problem", "ugv-nominal", "--dt", "0.5",
        "--controls", str(out / "controls.csv"), "--out", str(vout),
    )
    assert code == 0
    summary = json.loads((vout / "pmp_summary.json").read_text())
    assert "max_discrepancy" in summary
    assert (vout / "pmp_report.csv").exists()

    # controls grid from dt=0.5 cannot drive a dt=0.25 plan
    code = run_cli(
        "verify", "--problem", "ugv-nominal", "--dt", "0.25",
        "--controls", str(out / "controls.csv"), "--out", str(vout),
    )
    assert code == 1
    assert "40" in capsys.readouterr().err  # expected row count named


def test_propagate_writes_stats(tmp_path):
    out = tmp_path / "prop"
    code = run_cli(
        "propagate", "--problem", "ugv-stochastic", "--M", "50", "--seed", "1",
        "--dt", "0.5", "--out", str(out),
    )
    assert code == 0
    assert (out / "ensemble_stats.csv").exists()


def test_exactly_one_problem_source(capsys, tmp_path):
    code = run_cli("solve", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "problem" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    (("--problem", "ugv-stochastic", "--M", "0"), "sample count"),
    (("--problem", "ugv-stochastic", "--segments", "0"), "n_segments"),
    (("--problem", "ugv-stochastic", "--dt", "0"), "dt > 0"),
    (("--problem", "ugv-stochastic", "--t-f", "0"), "need t_final > 0"),
    (("--problem", "pde-stochastic", "--n-nodes", "0"), "inner nodes"),
], ids=["M", "segments", "dt", "t-f", "n-nodes"])
def test_zero_override_is_an_error(override, message, tmp_path, capsys):
    # a zero override must not fall back to the catalog default
    assert run_cli("propagate", *override, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


def test_problem_file_zero_override_is_an_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_ugv_file_doc()))
    code = run_cli("propagate", "--problem-file", str(path), "--M", "0",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "sample count" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    ("--dt", "0.1"), ("--segments", "5"), ("--t-f", "4.0"), ("--n-nodes", "8"),
], ids=["dt", "segments", "t-f", "n-nodes"])
def test_problem_file_rejects_grid_overrides(override, tmp_path, capsys):
    # the file fixes the grid: an override it would drop is an error, not a no-op
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_ugv_file_doc()))
    code = run_cli("propagate", "--problem-file", str(path), *override,
                   "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and override[0] in err[0]
    assert not (tmp_path / "o").exists()


def test_negative_horizon_is_an_error(tmp_path, capsys):
    code = run_cli("propagate", "--problem", "ugv-stochastic", "--t-f", "-2",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: need t_final > 0, got -2.0"]


def test_library_error_is_one_line_with_exit_code_1(tmp_path, capsys):
    # the catalog default pde-stochastic diverges at step 3 under explicit Euler
    code = run_cli("propagate", "--problem", "pde-stochastic", "--M", "2",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "step 3" in err[0]


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("command", ["propagate", "verify"])
def test_missing_controls_file_is_named(command, tmp_path, capsys):
    missing = tmp_path / "nonexistent.csv"
    code = run_cli(command, "--problem", "ugv-nominal", "--controls", str(missing),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    line = _one_error_line(capsys)
    assert line.startswith(f"error: cannot read controls file {missing}: ")
    assert "plan" not in line
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["t,u_1,u_2\n0,0.5,0.5\n", ""], ids=["one-row", "empty"])
@pytest.mark.parametrize("command", ["propagate", "verify"])
def test_controls_file_of_wrong_shape_blames_the_plan(command, text, tmp_path, capsys):
    path = tmp_path / "controls.csv"
    path.write_text(text)
    code = run_cli(command, "--problem", "ugv-nominal", "--controls", str(path),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    line = _one_error_line(capsys)
    assert "controls file does not match the plan (expected 200 rows): stacked" in line
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("propagate", ("--dt", "nan"), "need dt > 0, got nan"),
    ("propagate", ("--t-f", "inf"), "need a finite t_final, got inf"),
    ("solve", ("--max-iters", "0"), "max_inner must be at least 1, got 0"),
    ("solve", ("--max-iters", "-3"), "max_inner must be at least 1, got -3"),
    ("solve", ("--tol", "nan"), "inner_tol must be finite and positive, got nan"),
    ("propagate", ("--seed", "-1"), "seed must be a non-negative integer, got -1"),
    ("gradcheck", ("--seed", "-1"), "seed must be a non-negative integer, got -1"),
], ids=["dt-nan", "t-f-inf", "max-iters-0", "max-iters-negative", "tol-nan",
        "seed-negative", "gradcheck-seed-negative"])
def test_hostile_values_fail_at_their_source(command, flags, message, tmp_path, capsys):
    code = run_cli(command, "--problem", "ugv-stochastic", "--M", "3", *flags,
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert _one_error_line(capsys) == f"error: {message}"


@pytest.mark.parametrize("command", ["propagate", "verify", "gradcheck"])
def test_negative_seed_leaves_no_output_directory(command, tmp_path, capsys):
    from ensemble_oc import ControlSchedule, build
    from ensemble_oc.reporting import write_controls_csv

    plan = build("ugv-stochastic", M=3).plan
    controls = tmp_path / "controls.csv"
    write_controls_csv(controls, plan, ControlSchedule.constant(plan, [0.1, 0.0]))
    extra = ("--controls", str(controls)) if command == "verify" else ()
    code = run_cli(command, "--problem", "ugv-stochastic", "--M", "3", "--seed", "-1",
                   *extra, "--out", str(tmp_path / "o"))
    assert code == 1
    assert _one_error_line(capsys) == "error: seed must be a non-negative integer, got -1"
    assert not (tmp_path / "o").exists()


def test_path_infeasible_start_names_the_bound(tmp_path, capsys):
    # at zero control the ensemble-mean elevation of uav-stochastic first
    # falls below -pi/6 at segment 0, step 21 (t = 2.1 s)
    code = run_cli("solve", "--problem", "uav-stochastic", "--M", "20",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    line = _one_error_line(capsys)
    assert "ensemble mean of state 4 is -0.537946 at segment 0, step 21 (t = 2.1)" in line
    assert "below its path bound lo = -0.523599" in line
