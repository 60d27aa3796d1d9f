import json
import math

import pytest

from fourbar_synth.cli import main

from conftest import CANON_CONFIG


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_opt_config(tmp_path, **optimizer_overrides):
    data = json.loads(CANON_CONFIG.read_text())
    data["optimizer"].update(
        {"n_init": 4, "n_max": 7, "n_acq_starts": 4, "n_acq_samples": 128, "seed": 0}
    )
    data["optimizer"].update(optimizer_overrides)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--config", str(CANON_CONFIG))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"status": "ok", "baseline_samples": 201}


def test_usage_errors(capsys):
    assert run_cli(capsys, "validate")[0] == 64
    assert run_cli(capsys, "validate", "--config", str(CANON_CONFIG), "--bogus")[0] == 64
    assert run_cli(capsys, "evaluate", "--config", str(CANON_CONFIG), "--pose", "x")[0] == 64
    assert run_cli(capsys, "evaluate", "--config", str(CANON_CONFIG), "--design", "0.1,0.2")[0] == 64
    assert run_cli(capsys, "nonsense")[0] == 64


@pytest.mark.parametrize(
    "command, extra",
    [("validate", ()), ("evaluate", ()), ("trace", ("--out",)), ("grid", ("--out",)), ("optimize", ())],
)
def test_degrees_is_not_an_option(capsys, tmp_path, command, extra):
    # bare angles are radians; a degree value is written {"value": x, "units": "deg"}
    argv = [command, "--config", str(CANON_CONFIG), *(f"{flag}={tmp_path / 'out.csv'}" for flag in extra)]
    code, _, err = run_cli(capsys, *argv, "--degrees")
    assert code == 64
    assert "unrecognized arguments: --degrees" in err
    assert not (tmp_path / "out.csv").exists()


def test_missing_config_is_a_validation_failure(capsys):
    code, _, err = run_cli(capsys, "validate", "--config", "/no/such/file.json")
    assert code == 1
    assert "error:" in err


def test_malformed_config_is_a_validation_failure(capsys, tmp_path):
    data = json.loads(CANON_CONFIG.read_text())
    data["optimizer"]["n_acq_samples"] = "abc"
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "validate", "--config", str(path))
    assert code == 1
    assert err.startswith("error:") and "optimizer.n_acq_samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "payload", [b"9" * 400, b"9" * 5000, "0.5é".encode("latin-1")], ids=["400-digit", "5000-digit", "not-utf8"]
)
def test_unreadable_number_or_encoding_is_a_validation_failure(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(CANON_CONFIG.read_bytes().replace(b'"payload_mass": 0.5', b'"payload_mass": ' + payload))
    code, _, err = run_cli(capsys, "validate", "--config", str(path))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_infeasible_baseline_fails_validation(capsys, tmp_path):
    data = json.loads(CANON_CONFIG.read_text())
    data["mechanism"]["baseline"] = {"l_oa": 0.02, "l_ab": 0.05, "l_bc": 0.15}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "validate", "--config", str(path))
    assert code == 1
    assert "error:" in err


def test_evaluate_baseline_json(capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--config", str(CANON_CONFIG))
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["t_rms"] == pytest.approx(1.7428895130664603, rel=1e-12)
    assert payload["design"] == {"l_oa": 0.1, "l_ab": 0.25, "l_bc": 0.15}
    assert payload["constraints"]["c_dyn"] == 0.0


def test_evaluate_infeasible_design_reports_nulls(capsys):
    code, out, _ = run_cli(
        capsys, "evaluate", "--config", str(CANON_CONFIG), "--design", "0.02,0.25,0.15"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["t_rms"] is None
    assert payload["constraints"]["c_dyn"] is None
    assert payload["constraints"]["c_static_e"] > 0.0


def test_evaluate_pose_gap_json(capsys):
    code, out, _ = run_cli(
        capsys, "evaluate", "--config", str(CANON_CONFIG),
        "--design", "0.02,0.25,0.15", "--pose", "e",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pose"] == "e"
    assert payload["value"] == pytest.approx(0.0755005567935635, abs=1e-12)
    assert payload["degenerate_start"] is False
    assert len(payload["o_prime_init"]) == 2


def test_evaluate_pose_and_csv_are_exclusive(capsys, tmp_path):
    # --pose reports a static gap, not a record, so there is no row to append
    out_csv = tmp_path / "records.csv"
    code, out, err = run_cli(
        capsys, "evaluate", "--config", str(CANON_CONFIG), "--pose", "i", "--csv", str(out_csv)
    )
    assert code == 64
    assert out == "" and "not allowed with argument --pose" in err
    assert not out_csv.exists()


def test_evaluate_csv_append(capsys, tmp_path):
    out_csv = tmp_path / "records.csv"
    for _ in range(2):
        code, _, _ = run_cli(
            capsys, "evaluate", "--config", str(CANON_CONFIG), "--csv", str(out_csv)
        )
        assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "l_oa,l_ab,l_bc,c_static_i,c_static_e,c_dyn,t_rms,feasible"
    assert len(lines) == 3
    assert lines[1] == lines[2]
    fields = lines[1].split(",")
    assert fields[-1] == "true"
    assert float(fields[6]) == pytest.approx(1.7428895130664603, rel=1e-11)


def test_trace_csv(capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "trace", "--config", str(CANON_CONFIG), "--out", str(out_csv)
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,delta,delta_dot,delta_ddot,theta,theta_dot,theta_ddot,torque"
    assert len(lines) == 202
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(math.pi / 2, rel=1e-11)
    assert float(last[0]) == pytest.approx(0.5, rel=1e-12)
    assert float(last[1]) == pytest.approx(math.radians(150.0), rel=1e-11)
    for line in lines[1:]:
        assert len(line.split(",")) == 8
    assert lines[1] == "0,1.57079632679,0,0,0.927295218002,0,0,0.20601"
    assert lines[101] == (
        "0.25,2.09439510239,3.92699081699,0,1.80155233066,5.46881085105,-7.07177315302,"
        "-0.97065050713"
    )
    assert lines[201] == "0.5,2.61799387799,0,0,2.48968517029,0,0,-1.93641706543"


def test_trace_csv_wrapped_crank(capsys, tmp_path):
    # the crank passes theta = pi mid-stroke; the trace keeps it continuous
    data = json.loads(CANON_CONFIG.read_text())
    data["mechanism"]["baseline"] = {
        "l_oa": 0.18574091600846127, "l_ab": 0.3327444862266863, "l_bc": 0.2095751370653121,
    }
    config = tmp_path / "wrapped.json"
    config.write_text(json.dumps(data))
    out_csv = tmp_path / "trace.csv"
    assert run_cli(capsys, "trace", "--config", str(config), "--out", str(out_csv))[0] == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 202
    assert lines[1] == "0,1.57079632679,0,0,1.74221117879,0,0,-0.161150875304"
    assert lines[101] == (
        "0.25,2.09439510239,3.92699081699,0,2.37203932987,5.17214845334,10.6747051435,"
        "-1.644925693"
    )
    assert lines[201] == "0.5,2.61799387799,0,0,3.35252089499,0,0,-1.56530827588"


def test_unwritable_output_path(capsys):
    code, _, err = run_cli(
        capsys, "trace", "--config", str(CANON_CONFIG),
        "--out", "/no/such/dir/trace.csv",
    )
    assert code == 2
    assert "error:" in err


def test_grid_csv(capsys, tmp_path):
    out_csv = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys, "grid", "--config", str(CANON_CONFIG),
        "--resolution", "3", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "l_oa,l_ab,l_bc,c_static_i,c_static_e,c_dyn,t_rms,feasible"
    assert len(lines) == 28
    assert all(line.split(",")[7] in ("true", "false") for line in lines[1:])
    code, _, _ = run_cli(
        capsys, "grid", "--config", str(CANON_CONFIG),
        "--resolution", "99", "--out", str(out_csv),
    )
    assert code == 64


def test_optimize_outputs(capsys, tmp_path):
    config = small_opt_config(tmp_path)
    out_csv = tmp_path / "opt.csv"
    best_json = tmp_path / "best.json"
    gp_json = tmp_path / "gp.json"
    code, out, _ = run_cli(
        capsys, "optimize", "--config", config,
        "--out", str(out_csv), "--best", str(best_json), "--dump-gp", str(gp_json),
    )
    assert code == 0

    lines = out_csv.read_text().splitlines()
    assert lines[0] == "iter,l_oa,l_ab,l_bc,c_static_i,c_static_e,c_dyn,t_rms,acq,best_so_far"
    assert len(lines) == 8
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(7))
    bests = [line.split(",")[9] for line in lines[1:] if line.split(",")[9]]
    values = [float(b) for b in bests]
    assert values == sorted(values, reverse=True) or all(
        b <= a + 1e-15 for a, b in zip(values, values[1:])
    )

    stdout_payload = json.loads(out)
    best_payload = json.loads(best_json.read_text())
    if "no_feasible_found" in best_payload:
        assert stdout_payload == {"no_feasible_found": True}
    else:
        assert stdout_payload["best"] == best_payload["design"]
        assert stdout_payload["t_rms"] == best_payload["t_rms"]

    gp_payload = json.loads(gp_json.read_text())
    assert set(gp_payload) == {"objective", "constraints", "f_best_log"}
    assert set(gp_payload["constraints"]) <= {"c_dyn"}  # the static gaps are not modelled
    for model in gp_payload["constraints"].values():
        assert set(model) == {
            "signal_variance", "lengthscales", "noise_variance",
            "y_mean", "y_sd", "degenerate", "n_train",
        }


def test_optimize_reports_no_feasible_design(capsys, tmp_path):
    # on canon, every design in this box has a static gap of 0.2 m or more at pose i
    data = json.loads(CANON_CONFIG.read_text())
    data["optimizer"]["bounds"] = {"l_oa": [0.2, 0.3], "l_ab": [0.01, 0.02], "l_bc": [0.08, 0.25]}
    config = tmp_path / "no_feasible.json"
    config.write_text(json.dumps(data))
    out_csv = tmp_path / "opt.csv"
    best_json = tmp_path / "best.json"
    code, out, _ = run_cli(
        capsys, "optimize", "--config", str(config), "--budget", "14",
        "--out", str(out_csv), "--best", str(best_json),
    )
    assert code == 0
    assert json.loads(best_json.read_text()) == {"no_feasible_found": True}
    assert json.loads(out) == {"no_feasible_found": True}
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 14
    assert all(row[7] == "" and row[9] == "" for row in rows)


def test_optimize_reruns_are_byte_identical(capsys, tmp_path):
    config = small_opt_config(tmp_path)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(capsys, "optimize", "--config", config, "--out", str(first))[0] == 0
    assert run_cli(capsys, "optimize", "--config", config, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_optimize_seed_override_changes_initialization(capsys, tmp_path):
    config = small_opt_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(capsys, "optimize", "--config", config, "--out", str(a))[0] == 0
    assert run_cli(
        capsys, "optimize", "--config", config, "--seed", "5", "--out", str(b)
    )[0] == 0
    assert a.read_bytes() != b.read_bytes()


def test_optimize_negative_seed_is_a_validation_failure(capsys, tmp_path):
    config = small_opt_config(tmp_path)
    code, out, err = run_cli(capsys, "optimize", "--config", config, "--seed", "-3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: seed: ")
    assert "Traceback" not in err


def test_optimize_budget_override(capsys, tmp_path):
    config = small_opt_config(tmp_path)
    out_csv = tmp_path / "opt.csv"
    code, _, _ = run_cli(
        capsys, "optimize", "--config", config, "--budget", "6", "--out", str(out_csv)
    )
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 7
