import json
import subprocess
import sys
from fractions import Fraction

import pytest

from slra import structured
from slra.cli import catalecticant_count_instances, main, table1_blocks


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eddeg_generic(capsys):
    code, out, _ = run_cli(["eddeg", "generic", "--m", "4", "--n", "4",
                            "--r", "2", "--s", "0"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 1350


def test_eddeg_hankel(capsys):
    code, out, _ = run_cli(["eddeg", "hankel", "--d", "8", "--r", "4"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 121


def test_eddeg_sylvester(capsys):
    code, out, _ = run_cli(["eddeg", "sylvester", "--m", "2", "--n", "5",
                            "--k", "2"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 26


def test_eddeg_segre(capsys):
    code, out, _ = run_cli(["eddeg", "segre", "--m", "3", "--n", "3"], capsys)
    payload = json.loads(out)
    assert payload["face_volumes"] == [9, 18, 24, 18, 6]
    assert payload["polar_classes"] == [3, 6, 12, 12, 6]
    assert payload["ed_degree"] == 39


def test_eddeg_corank1_unit_flagged(capsys):
    code, out, _ = run_cli(["eddeg", "corank1", "--n", "3", "--s", "0",
                            "--weights", "unit"], capsys)
    payload = json.loads(out)
    assert payload["value"] == 3
    assert "conjecture" in payload["basis"]


def test_eddeg_unit_gap(capsys):
    code, out, _ = run_cli(["eddeg", "unit-gap", "--m", "3", "--n", "3",
                            "--s", "0"], capsys)
    assert json.loads(out)["value"] == 36


def test_eddeg_invalid_range(capsys):
    code, out, err = run_cli(["eddeg", "generic", "--m", "3", "--n", "3",
                              "--r", "7", "--s", "0"], capsys)
    assert code == 1


def test_table1_blocks_flagging():
    blocks = table1_blocks([2, 3])
    assert blocks["linear_unit"]["basis"] == "conjecture-based"
    assert blocks["linear_generic"]["values"][3][0] == 39
    assert blocks["linear_unit"]["values"][3][:4] == [3, 15, 31, 39]
    assert blocks["affine_unit"]["values"][2] == [2, 6, 4, 2]


def test_table_csv_output(capsys):
    code, out, _ = run_cli(["eddeg", "table3-omega", "--csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("3,4")
    assert lines[-1] == "9,22,151,334,121"
    # a range and a list name the same columns
    for n in ("2..3", "2,3"):
        code, out, _ = run_cli(["eddeg", "table1", "--n", n, "--csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert [line for line in lines if line.startswith("#")] == [
            "# linear_unit (conjecture-based)", "# affine_unit (reference data)",
            "# linear_generic (exact)", "# affine_generic (exact)"]
        assert lines[1] == "s,n=2,n=3"
        generic = lines.index("# linear_generic (exact)")
        assert lines[generic + 2] == "0,6,39"
    code, out, _ = run_cli(["eddeg", "table4-generic", "--csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(m;n)\\k,1,2,3,4" and len(lines) == 10
    for line in lines[1:]:
        pair, *values = line.split(",")
        m, n = (int(v) for v in pair.strip("()").split(";"))
        # k = m: the last column is 4(m + n) - 2
        assert len(values) == m and int(values[-1]) == 4 * (m + n) - 2


def test_make_instance_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run_cli(["make-instance", "--family", "dense",
                              "--m", "4", "--n", "4", "--r", "3",
                              "--weights", "random",
                              "--seed", "7", "--out", str(out)], capsys)
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    flat_u = [x for row in payload["U"] for x in row]
    flat_w = [x for row in payload["weights"] for x in row]
    assert all(-100 <= x <= 100 for x in flat_u)
    assert all(1 <= x <= 20 for x in flat_w)


def test_make_instance_requires_seed(tmp_path, capsys):
    code, _, err = run_cli(["make-instance", "--family", "dense",
                            "--out", str(tmp_path / "x.json")], capsys)
    assert code == 1
    assert "seed" in err


def test_make_instance_hankel_weights(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, _, _ = run_cli(["make-instance", "--family", "hankel",
                          "--order", "6", "--weights", "omega",
                          "--seed", "3", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["family"] == "hankel"
    assert payload["params"]["hankel_order"] == 6
    assert payload["weights"][0] == [1, "1/2", "1/3", "1/3"]


@pytest.mark.parametrize("family, weights", [
    ("hankel", "unit"), ("hankel", "thetaa"), ("sylvester", "random"),
    ("dense", "omega"), ("catalecticant", "omega"),
])
def test_make_instance_rejects_weights_the_family_does_not_take(
        family, weights, tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, err = run_cli(["make-instance", "--family", family, "--weights", weights,
                            "--seed", "3", "--out", str(out)], capsys)
    assert code == 1
    assert "cannot build instance" in err and not out.exists()


def test_solve_bad_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(["solve", "--input", str(bad), "--seed", "1"], capsys)
    assert code == 1


def test_solve_report_and_expectation(tmp_path, capsys):
    from slra import structured as st
    inst = st.dense_instance(2, 2, 1, seed=8)
    path = tmp_path / "inst.json"
    st.save_instance(inst, path)
    code, out, _ = run_cli(["solve", "--input", str(path), "--formulation",
                            "primal", "--seed", "2", "--expect", "6"], capsys)
    assert code == 0
    report = json.loads(out)
    for field in ("command", "seed", "config", "n_paths", "n_converged",
                  "n_diverged", "n_filtered", "n_complex", "n_real",
                  "n_local_min", "points", "expected", "agreement", "wall_ms"):
        assert field in report
    assert report["n_complex"] == 6
    assert report["agreement"] is True
    point = report["points"][0]
    assert set(point) == {"X", "objective", "residual", "is_real", "class"}

    code2, out2, _ = run_cli(["solve", "--input", str(path), "--formulation",
                              "primal", "--seed", "2", "--expect", "7"], capsys)
    assert code2 == 2


def test_solve_report_determinism(tmp_path, capsys):
    from slra import structured as st
    inst = st.dense_instance(2, 2, 1, seed=8)
    path = tmp_path / "inst.json"
    st.save_instance(inst, path)

    def run():
        _, out, _ = run_cli(["solve", "--input", str(path), "--formulation",
                             "primal", "--seed", "2"], capsys)
        report = json.loads(out)
        report.pop("wall_ms")
        return json.dumps(report, sort_keys=True)

    assert run() == run()


@pytest.mark.parametrize("name", ["rey", "hankel33", "example36"])
def test_documented_reproductions_pass(name, capsys):
    code, out, _ = run_cli(["reproduce", name, "--seed", "1"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_reproduce_gating(capsys):
    code, _, err = run_cli(["reproduce", "catalecticant-count"], capsys)
    assert code == 1
    assert "--allow-slow" in err


def test_catalecticant_count_weights_are_the_drawn_coefficients():
    theta, generic, coeffs = catalecticant_count_instances(1)
    assert theta.weights == structured.catalecticant_theta()
    assert generic.U == theta.U
    assert generic.structure().coordinate_weights(generic.weights) == \
        [Fraction(int(w)) for w in coeffs]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "slra.cli", "eddeg",
                           "generic", "--m", "3", "--n", "3", "--r", "1",
                           "--s", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 39


def test_table1_matches_reference_columns(capsys):
    # the table subcommand reproduces all four reference blocks
    from test_acceptance import AFFINE_GENERIC, LINEAR_GENERIC, LINEAR_UNIT
    blocks = table1_blocks([2, 3, 4, 5])
    for n, col in LINEAR_GENERIC.items():
        assert blocks["linear_generic"]["values"][n][:len(col)] == col
    for n, col in AFFINE_GENERIC.items():
        assert blocks["affine_generic"]["values"][n][:len(col)] == col
    for n, col in LINEAR_UNIT.items():
        assert blocks["linear_unit"]["values"][n][:len(col)] == col


def test_make_instance_sylvester_and_catalecticant(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, _, _ = run_cli(["make-instance", "--family", "sylvester",
                          "--m", "2", "--n", "3", "--k", "1",
                          "--seed", "4", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["params"]["sylvester"] == {"m": 2, "n": 3, "k": 1}
    out2 = tmp_path / "c.json"
    code, _, _ = run_cli(["make-instance", "--family", "catalecticant",
                          "--seed", "4", "--out", str(out2)], capsys)
    assert code == 0
    assert json.loads(out2.read_text())["family"] == "catalecticant"


def test_solve_hankel_weight_override(capsys):
    from slra.structured import dataset_path
    code, out, _ = run_cli(["solve", "--input", str(dataset_path("hankel33")),
                            "--weights", "theta", "--r", "1", "--seed", "2"],
                           capsys)
    assert code == 0
    assert json.loads(out)["n_complex"] == 4


def test_solve_unit_weights_by_the_weight_route(tmp_path, capsys):
    # unit weights have only a conjectured count (15), which must not stop
    # the search: the fibre at generic weights (39 points) is deformed to them
    path = tmp_path / "inst.json"
    structured.save_instance(structured.dense_instance(3, 3, 2, seed=1, s=1), path)
    code, out, _ = run_cli(["solve", "--input", str(path), "--weights", "unit",
                            "--expect", "15", "--seed", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["start_kind"] == "weights"
    assert (report["n_complex"], report["generic_count"], report["n_lost"]) == (15, 39, 24)


@pytest.mark.parametrize("argv", [
    ["eddeg", "generic", "--m", "4"],  # --n and --r missing
    ["reproduce", "nosuch"],
])
def test_usage_errors_exit_1(argv, capsys):
    # 2 is reserved for an expectation mismatch
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and "error" in err


def test_solve_takes_one_or_two_charts(tmp_path, capsys):
    path = tmp_path / "inst.json"
    structured.save_instance(structured.dense_instance(2, 2, 1, seed=8), path)
    code, out, err = run_cli(["solve", "--input", str(path), "--seed", "2",
                              "--charts", "3"], capsys)
    assert code == 1
    assert out == "" and "--charts" in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(["eddeg", "generic", "--help"], capsys)
    assert code == 0
    assert "--m" in out
