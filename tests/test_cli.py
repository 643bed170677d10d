import json
import os
import subprocess
import sys

import jsonschema
import pytest

from cotci import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = json.load(open(os.path.join(REPO, "report.schema.json")))


def run_cli(args, out_path, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "cotci.cli", *args, "--out", str(out_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    report = None
    if os.path.exists(out_path):
        with open(out_path) as fh:
            report = json.load(fh)
    return proc.returncode, report, proc.stderr


def strip_wall_time(report):
    out = dict(report)
    out.pop("wall_time", None)
    return out


def test_curve_command(tmp_path):
    code, rep, _ = run_cli(["curve", "--e", "4", "--P", "Z0"], tmp_path / "r.json")
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["result"]["dim"] == 3
    assert rep["result"]["genus_formula"] == 3
    pair = rep["result"]["descent"]["chart0_pair"]
    assert [p["denominator"] for p in pair] == ["f1", "f2"]
    assert [p["form"] for p in pair] == ["dz2", "dz1"]
    assert [p["sign"] for p in pair] == [-1, 1]


def test_curve_reads_polynomial_file(tmp_path):
    pfile = tmp_path / "poly.txt"
    pfile.write_text("Z0 + Z1\n")
    code, rep, _ = run_cli(
        ["curve", "--e", "4", "--P", str(pfile)], tmp_path / "r.json"
    )
    assert code == 0 and rep["result"]["dim"] == 3


def test_parse_poly_file_roundtrip(tmp_path):
    pfile = tmp_path / "poly.txt"
    pfile.write_text("3/2*Z0^2*Z1 - Z2^3")
    f = cli.parse_poly_file(pfile)
    assert f.to_text() == "3/2*Z0^2*Z1 - Z2^3"


def test_jump_command(tmp_path):
    code, rep, _ = run_cli(
        ["jump", "--e", "5", "--trials", "1", "--seed", "42"], tmp_path / "r.json"
    )
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["result"]["dim_at_origin"] >= 1
    assert all(d == 0 for d in rep["result"]["dims_at_random_parameters"])


def test_witness_command(tmp_path):
    code, rep, _ = run_cli(
        [
            "witness",
            "--setting",
            "(N=4; e=5,5; L0=; L1=; L2=2)",
            "--a",
            "0",
            "--P",
            "1",
        ],
        tmp_path / "r.json",
    )
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["result"]["nonzero"] is True


def test_cohomology_and_probes_commands(tmp_path):
    code, rep, _ = run_cli(
        ["cohomology", "--N", "2", "--c", "1", "--e", "4", "--ell", "1", "--tilde"],
        tmp_path / "r.json",
    )
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["result"]["dim"] == 3
    code, rep, _ = run_cli(
        ["probes", "--trials", "50", "--seed", "3"], tmp_path / "p.json"
    )
    assert code == 0
    jsonschema.validate(rep, SCHEMA)


def test_fermat_verify_command(tmp_path):
    code, rep, _ = run_cli(
        [
            "fermat-verify",
            "--N", "3", "--c", "2", "--epsilon", "0", "--e", "4",
            "--seed", "11",
        ],
        tmp_path / "r.json",
    )
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["result"]["all_ok"] is True


def test_baselocus_command(tmp_path):
    code, rep, _ = run_cli(
        [
            "baselocus",
            "--N", "3", "--c", "2", "--epsilon", "1", "--e", "5",
            "--prime", "5", "--seed", "21",
        ],
        tmp_path / "r.json",
    )
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["result"]["w_vanishing"]["failures"] == 0


def test_determinism_modulo_wall_time(tmp_path):
    args = ["probes", "--trials", "25", "--seed", "9"]
    _, rep1, _ = run_cli(args, tmp_path / "a.json")
    _, rep2, _ = run_cli(args, tmp_path / "b.json")
    assert strip_wall_time(rep1) == strip_wall_time(rep2)
    t1 = json.dumps(strip_wall_time(rep1), sort_keys=True)
    t2 = json.dumps(strip_wall_time(rep2), sort_keys=True)
    assert t1.encode() == t2.encode()


def test_usage_errors_exit_1(tmp_path):
    code, _, err = run_cli(
        ["cohomology", "--N", "4", "--c", "2", "--e", "5", "--ell", "2,2"],
        tmp_path / "r.json",
    )
    assert code == 1 and "q = -2" in err
    code, _, err = run_cli(
        ["curve", "--e", "4", "--P", "Z0 + Z1^2"], tmp_path / "r.json"
    )
    assert code == 1 and "degrees" in err
    proc = subprocess.run(
        [sys.executable, "-m", "cotci.cli", "nonsense"], capture_output=True, text=True
    )
    assert proc.returncode == 1


def test_cap_env_override(tmp_path):
    code, _, err = run_cli(
        ["jump", "--e", "5", "--trials", "0", "--seed", "1"],
        tmp_path / "r.json",
        env_extra={"COTCI_CAP": "100"},
    )
    assert code == 1 and "exceeds cap" in err
    assert "Traceback" not in err
    assert err.strip().splitlines() == ["error: basis size 3876 exceeds cap 100"]


def test_cap_between_source_and_largest_target_exits_1(tmp_path):
    # source dim 20 fits the cap; the largest constraint target (dim 40) does not
    args = ["cohomology", "--N", "3", "--c", "2", "--e", "2,3",
            "--setting", "(N=3; e=2,3; L0=; L1=; L2=1)"]
    code, rep, _ = run_cli(args, tmp_path / "ok.json")
    assert code == 0
    assert rep["result"]["ambient_dim"] == 20
    assert max(c["target_dim"] for c in rep["result"]["constraints"]) == 40
    code, _, err = run_cli(args, tmp_path / "r.json", env_extra={"COTCI_CAP": "30"})
    assert code == 1
    assert err.strip().splitlines() == ["error: basis size 40 exceeds cap 30"]


def test_euler_cross_check_failure_exits_2(monkeypatch, capsys, tmp_path):
    # two positive-degree limit factors, so omega runs the Euler cross-check
    def mismatch(space, cap=None):
        raise cli.ci_engine.EulerCrossCheckError("forced mismatch")

    monkeypatch.setattr(cli.ci_engine, "euler_image", mismatch)
    out = tmp_path / "r.json"
    cfg = cli.RunConfig(
        command="cohomology",
        params={"N": 3, "c": 1, "e": [3], "ell": [2, 2], "a": 1},
        out=str(out),
    )
    assert cli.run(cfg) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["verification failed: forced mismatch"]
    assert not out.exists()


def test_verification_failure_exits_2(monkeypatch, capsys, tmp_path):
    # the dispatcher turns a failed verification into exit status 2
    monkeypatch.setitem(cli._RUNNERS, "probes", lambda cfg: ({"forced": True}, False))
    cfg = cli.RunConfig(command="probes", params={}, out=str(tmp_path / "r.json"))
    assert cli.run(cfg) == 2


def test_witness_membership_failure_exits_2(monkeypatch, tmp_path):
    import cotci.ci_engine as eng

    def boom(setting, a, P, coeff_rows=None, cap=None):
        raise eng.WitnessMembershipError("forced failure")

    monkeypatch.setattr(eng, "nonvanishing_witness", boom)
    cfg = cli.RunConfig(
        command="witness",
        params={"setting": "(N=4; e=5,5; L0=; L1=; L2=2)", "a": 0, "P": "1"},
        out=str(tmp_path / "r.json"),
    )
    assert cli.run(cfg) == 2


@pytest.mark.parametrize(
    "params",
    [
        {"N": 2, "c": 1, "e": [4], "setting": "(N=2; e=4; L0=; L1=1)"},
        {"N": 3, "c": 2, "e": [2, 3], "setting": "(N=3; e=2,3; L0=; L1=; L2=1)"},
        {"N": 2, "c": 1, "e": [4], "ell": [2]},
    ],
    ids=["tilde", "tilde-lower-bound", "omega"],
)
def test_cohomology_recheck_failure_exits_2(monkeypatch, tmp_path, params):
    # each cohomology branch reports the exact re-check of its result as its
    # verification status, and still writes the report when it fails
    monkeypatch.setattr(cli.ci_engine, "verify_result", lambda result: False)
    out = tmp_path / "r.json"
    cfg = cli.RunConfig(command="cohomology", params=params, out=str(out))
    assert cli.run(cfg) == 2
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["result"]["dim"] >= 0
