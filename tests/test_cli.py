import hashlib
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from cotci import cech, cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "report.schema.json"), encoding="utf-8") as fh:
    SCHEMA = json.load(fh)


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


def test_report_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def test_schema_rejects_malformed_descent_and_scan_counters(tmp_path):
    # the schema is the one description of these shapes, so each edit below,
    # which breaks one shape it states, must be refused
    _, curve, _ = run_cli(["curve", "--e", "4", "--P", "Z0"], tmp_path / "c.json")
    _, scan, _ = run_cli(
        ["baselocus", "--N", "3", "--c", "2", "--e", "7", "--prime", "3"], tmp_path / "b.json"
    )
    jsonschema.validate(curve, SCHEMA)
    jsonschema.validate(scan, SCHEMA)

    def broken(report, edit):
        copy = json.loads(json.dumps(report))
        edit(copy["result"])
        return copy

    bad = [
        broken(curve, lambda r: r["descent"]["chart0_pair"][0].update(sign=0)),
        broken(curve, lambda r: r["descent"]["chart0_pair"][1].update(numerator=1)),
        broken(curve, lambda r: r["descent"].update(chart0_pair=r["descent"]["chart0_pair"] * 2)),
        broken(curve, lambda r: r["descent"].update(descent_pair_identity="true")),
        broken(scan, lambda r: r["w_vanishing"].update(failures=-1)),
        broken(scan, lambda r: r["nonzero_spot"].pop("checked")),
        broken(scan, lambda r: r.pop("hypothesis_warning")),
    ]
    for report in bad:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, SCHEMA)


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


def test_curve_off_the_genus_formula_exits_2(tmp_path, capsys):
    # Z0^4 is not smooth: its dimension is not the genus, so curve must not
    # call its answer verified
    out = tmp_path / "r.json"
    assert cli.main(["curve", "--e", "4", "--P", "Z0", "--F", "Z0^4", "--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, SCHEMA)
    result = rep["result"]
    assert (result["dim"], result["genus_formula"], result["verified"]) == (15, 3, False)
    assert capsys.readouterr().err.splitlines() == ["verification failed"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--N", "3", "--c", "1", "--e", "5", "--ell", "1", "--tilde"],
        ["curve", "--e", "4", "--P", "Z0"],
        ["jump", "--e", "5", "--trials", "1"],
    ],
    ids=["cohomology", "curve", "jump"],
)
def test_planted_table_fault_fails_the_recheck(argv, monkeypatch, capsys, tmp_path):
    # shift tables that drop their last key change every answer (48 instead
    # of 44 for the cohomology); the re-check by the rules' forward action
    # reads no table, so each command must exit 2
    real = cech._shift_table

    def dropping(*args):
        keys, mults = real(*args)
        return keys[:-1], None if mults is None else mults[:-1]

    monkeypatch.setattr(cech, "_shift_table", dropping)
    monkeypatch.setattr(cech, "_basis_cache", {})
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 2
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, dims, honest",
    [
        (["cohomology", "--N", "4", "--c", "1", "--e", "6", "--ell", "2,1"],
         lambda rep: rep["dim"], 670),
        (["jump", "--e", "7", "--trials", "1", "--seed", "42"],
         lambda rep: (rep["dim_at_origin"], rep["dims_at_random_parameters"],
                      rep["degenerate_case"]["dim"]),
         (15, [0], 0)),
    ],
    ids=["cohomology", "jump"],
)
def test_planted_duplicate_vector_never_passes_as_a_dimension(
    argv, dims, honest, monkeypatch, capsys, tmp_path
):
    # a combination step that repeats a vector keeps every vector in every
    # kernel, so only the re-check's independence proof tells the vector
    # count from the dimension: the command may exit 0 only with the honest
    # answer, and exits 2 otherwise
    real = cli.ci_engine.combine_basis

    def duplicating(basis, coeffs):
        out = real(basis, coeffs)
        if out.vectors:
            out.vectors.append(dict(out.vectors[0]))
        return out

    monkeypatch.setattr(cli.ci_engine, "combine_basis", duplicating)
    out = tmp_path / "r.json"
    code = cli.main([*argv, "--out", str(out)])
    if code == 0:
        assert dims(json.loads(out.read_text())["result"]) == honest
    else:
        assert code == 2 and "verification failed" in capsys.readouterr().err


def test_planted_dropped_kernel_vector_fails_the_origin_check(monkeypatch, capsys, tmp_path):
    # a kernel basis short of its last vector keeps every vector in every
    # kernel and independent, so the re-check passes it (origin 13, not 15,
    # at e = 7); the closed form C(e-1, 4) of the origin must catch it
    real = cli.ci_engine.kernel_basis

    def dropping(matrix):
        out = real(matrix)
        del out.vectors[-1:]
        return out

    monkeypatch.setattr(cli.ci_engine, "kernel_basis", dropping)
    argv = ["jump", "--e", "7", "--trials", "1", "--seed", "42"]
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("verification failed: ")


def test_curve_reads_polynomial_file(tmp_path):
    pfile = tmp_path / "poly.txt"
    pfile.write_text("Z0 + Z1\n")
    code, rep, _ = run_cli(
        ["curve", "--e", "4", "--P", str(pfile)], tmp_path / "r.json"
    )
    assert code == 0 and rep["result"]["dim"] == 3


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


def test_fermat_verify_reads_P_inline_and_from_file(tmp_path):
    args = ["fermat-verify", "--N", "3", "--c", "2", "--e", "5", "--seed", "11"]
    code, inline, _ = run_cli([*args, "--P", "2*Z1 - Z3"], tmp_path / "a.json")
    assert code == 0 and inline["result"]["all_ok"] is True
    pfile = tmp_path / "p.txt"
    pfile.write_text("2*Z1 - Z3\n")
    code, from_file, _ = run_cli([*args, "--P", str(pfile)], tmp_path / "b.json")
    assert code == 0
    assert from_file["parameters"].pop("P") == str(pfile)
    assert inline["parameters"].pop("P") == "2*Z1 - Z3"
    assert strip_wall_time(from_file) == strip_wall_time(inline)
    # P reaches the verification: a degree other than the bound is refused
    pfile.write_text("Z1^2")
    code, _, err = run_cli([*args, "--P", str(pfile)], tmp_path / "c.json")
    assert code == 1
    assert err.strip().splitlines() == ["error: P must have degree 1, got 2"]


def test_fermat_verify_rejects_out_of_range_P_variable(tmp_path):
    code, rep, err = run_cli(
        ["fermat-verify", "--N", "4", "--c", "2", "--epsilon", "1", "--e", "9", "--P", "Z9"],
        tmp_path / "r.json",
    )
    assert code == 1 and rep is None
    assert err.strip().splitlines() == [
        "error: line 1, column 1: variable index exceeds nvars=5"
    ]


def test_fermat_verify_rejects_negative_a_before_any_work(monkeypatch, capsys, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("fermat-verify did work for a < 0")

    monkeypatch.setattr(cli.fermat_mod, "random_fermat_system", no_work)
    out = tmp_path / "r.json"
    cfg = cli.RunConfig(
        command="fermat-verify",
        params={"N": 3, "c": 2, "e": 5, "seed": 11, "a": -1},
        out=str(out),
    )
    assert cli.run(cfg) == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error: --a must be >= 0, got -1"]
    assert not out.exists()


def test_baselocus_rejects_a_twist_without_forms(tmp_path):
    # e = 7 leaves numerator degree 0 at a = 0; a = 50 leaves none
    args = ["baselocus", "--N", "3", "--c", "2", "--epsilon", "1", "--e", "7",
            "--prime", "5", "--seed", "21"]
    code, rep, err = run_cli([*args, "--a", "50"], tmp_path / "r.json")
    assert code == 1 and rep is None
    assert err.strip().splitlines() == ["error: twist a=50 leaves no numerator degree"]


def test_baselocus_command(tmp_path):
    code, rep, _ = run_cli(
        [
            "baselocus",
            "--N", "3", "--c", "2", "--epsilon", "1", "--e", "7",
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
    for args in (
        ["curve", "--e", "4", "--P", "1/0*Z0"],
        ["cohomology", "--N", "4", "--c", "2", "--e", "5", "--ell", "2", "--alpha", "1/0,1"],
    ):
        code, _, err = run_cli(args, tmp_path / "r.json")
        assert code == 1 and "Traceback" not in err
        (line,) = err.strip().splitlines()
        assert line.startswith("error:") and "zero denominator" in line
    # a setting takes each of N, e and L0, L1, ... at most once, and no other key
    for setting, why in (
        ("(N=4; e=5,5; L0=; L1=; L2=2; Q=7)", "unknown setting key 'Q'"),
        ("(N=4; e=5,5; L0=; L1=; L2=2; L2=3)", "setting key 'L2' given twice"),
        ("(N=4; N=3; e=5,5; L0=; L1=; L2=2)", "setting key 'N' given twice"),
    ):
        code, _, err = run_cli(["witness", "--setting", setting, "--P", "1"], tmp_path / "r.json")
        assert code == 1
        assert err.strip().splitlines() == [f"error: {why}"]
    proc = subprocess.run(
        [sys.executable, "-m", "cotci.cli", "nonsense"], capture_output=True, text=True
    )
    assert proc.returncode == 1


# every command except cohomology ignores one of --seed and --basis, so it
# does not take it
DEAD_FLAGS = [
    (["curve", "--e", "4", "--P", "Z0"], ["--seed", "3"]),
    (["curve", "--e", "4", "--P", "Z0"], ["--basis"]),
    (["witness", "--setting", "(N=4; e=5,5; L0=; L1=; L2=2)", "--P", "1"], ["--seed", "3"]),
    (["jump", "--e", "5", "--trials", "1"], ["--basis"]),
    (["fermat-verify", "--N", "3", "--c", "2", "--e", "5"], ["--basis"]),
    (["baselocus", "--N", "3", "--c", "2", "--e", "7", "--prime", "5"], ["--basis"]),
    (["probes", "--trials", "5"], ["--basis"]),
]


@pytest.mark.parametrize(
    "args, flag", DEAD_FLAGS, ids=[f"{args[0]}{flag[0]}" for args, flag in DEAD_FLAGS]
)
def test_flags_a_command_does_not_read_exit_1(args, flag, capsys):
    cli._build_parser().parse_args(args)  # valid without the flag
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, *flag])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args", [["probes", "--trials", "0"], ["jump", "--e", "5", "--trials", "-2"]]
)
def test_trials_below_one_exit_1_before_any_work(args, monkeypatch, capsys, tmp_path):
    def no_work(*_args, **_kwargs):
        raise AssertionError("a command without trials must not run")

    monkeypatch.setattr(cli.ci_engine, "jump_experiment", no_work)
    monkeypatch.setattr(cli.fermat_mod, "genericity_probes", no_work)
    out = tmp_path / "r.json"
    assert cli.main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: --trials must be >= 1, got {args[-1]}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["jump", "--e", "5", "--trials", "1"],
        ["cohomology", "--N", "4", "--c", "2", "--e", "5", "--ell", "2", "--alpha", "1,2"],
    ],
    ids=["jump", "cohomology-alpha"],
)
@pytest.mark.parametrize(
    "avec, why",
    [
        ("0,1,2,3,4,4", "the deformed pair needs five diagonal coefficients, got 6"),
        ("0,1,2", "the deformed pair needs five diagonal coefficients, got 3"),
        ("0,1,2,3,3", "the five diagonal coefficients must be pairwise distinct"),
    ],
    ids=["six", "three", "repeat"],
)
def test_avec_must_be_five_distinct_values(command, avec, why, capsys, tmp_path):
    out = tmp_path / "r.json"
    assert cli.main([*command, "--avec", avec, "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {why}"]
    assert not out.exists()


# cohomology reads --avec only for the deformed pair of --alpha/--beta, and
# --seed only for the random coefficients the deformed pair replaces
UNREAD_FLAGS = [
    (["--avec", "1,1"], "error: --avec is read only with --alpha/--beta"),
    (["--alpha", "1,2", "--seed", "3"],
     "error: --seed is not read with --alpha/--beta: the deformed pair is fixed"),
    (["--beta", "3,5", "--seed", "3"],
     "error: --seed is not read with --alpha/--beta: the deformed pair is fixed"),
]


@pytest.mark.parametrize(
    "flags, line", UNREAD_FLAGS, ids=["avec", "alpha-seed", "beta-seed"]
)
def test_cohomology_flags_its_construction_does_not_read_exit_1(flags, line, capsys, tmp_path):
    out = tmp_path / "r.json"
    args = ["cohomology", "--N", "4", "--c", "2", "--e", "5", "--ell", "2", *flags]
    assert cli.main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [line]
    assert not out.exists()


def test_cap_env_override(tmp_path):
    code, _, err = run_cli(
        ["jump", "--e", "5", "--trials", "1", "--seed", "1"],
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


def test_malformed_cap_exits_1_before_any_work(monkeypatch, capsys, tmp_path):
    # probes enumerates no basis, so only the check before the run can see it
    monkeypatch.setenv("COTCI_CAP", "abc")
    out = tmp_path / "r.json"
    assert cli.main(["probes", "--trials", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: invalid literal for int() with base 10: 'abc'\n"
    assert captured.out == "" and not out.exists()


def test_unknown_command_is_a_usage_error():
    with pytest.raises(cli.UsageError, match="unknown command 'nonsense'"):
        cli.RunConfig(command="nonsense")


def test_out_of_memory_exits_1_with_one_error_line(tmp_path):
    # an address-space limit on the child only: the interpreter runs `probes`
    # in well under 60 MB, while the cohomology-dim0 command peaks near 190 MB
    resource = pytest.importorskip("resource")
    limit = 100 * 2**20

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cotci.cli", "cohomology", "--N", "6", "--c", "3",
         "--e", "4", "--ell", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        preexec_fn=limit_child,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: out of memory in cohomology"]
    assert proc.stdout == "" and not out.exists()


def test_euler_cross_check_failure_exits_2(monkeypatch, capsys, tmp_path):
    # two positive-degree limit factors, so omega runs the Euler cross-check
    def mismatch(space):
        raise cli.ci_engine.VerificationError("forced mismatch")

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


def test_witness_membership_failure_exits_2(monkeypatch, capsys, tmp_path):
    # as with the Euler cross-check: one line on stderr and no report, since
    # a failed witness has no report the schema admits
    import cotci.ci_engine as eng

    def boom(setting, a, P, coeff_rows=None):
        raise eng.VerificationError("forced failure")

    monkeypatch.setattr(eng, "nonvanishing_witness", boom)
    out = tmp_path / "r.json"
    cfg = cli.RunConfig(
        command="witness",
        params={"setting": "(N=4; e=5,5; L0=; L1=; L2=2)", "a": 0, "P": "1"},
        out=str(out),
    )
    assert cli.run(cfg) == 2
    assert capsys.readouterr().err.splitlines() == ["verification failed: forced failure"]
    assert not out.exists()


def _first_rule_rejects(monkeypatch):
    # the membership test names a rule that rejects nothing
    monkeypatch.setattr(cli.ci_engine, "_rejecting_rule", lambda rules, classes: rules[0])


def _euler_off_by_one(monkeypatch):
    real = cli.ci_engine.expected_euler_image_dim
    monkeypatch.setattr(cli.ci_engine, "expected_euler_image_dim", lambda space: real(space) + 1)


def _origin_off_by_one(monkeypatch):
    monkeypatch.setattr(cli.ci_engine, "comb", lambda n, k: 2)


FERMAT4 = "mulF *(Z0^4 + Z1^4 + Z2^4)"
JUMP = ["jump", "--e", "5", "--trials", "1", "--seed", "42"]
SELF_CHECKS = {
    "cohomology-tilde": (
        ["cohomology", "--N", "2", "--c", "1", "--e", "4", "--setting", "(N=2; e=4; L0=; L1=1)"],
        _first_rule_rejects,
        f"kernel basis of H^2(Omega~^(0)(-8)) has nonzero image under {FERMAT4}",
    ),
    "cohomology-tilde-lower-bound": (
        ["cohomology", "--N", "3", "--c", "2", "--e", "2,3",
         "--setting", "(N=3; e=2,3; L0=; L1=; L2=1)"],
        _first_rule_rejects,
        "kernel basis of H^3(Omega~^(0)(-7)) has nonzero image under "
        "mulF *(Z0^2 + Z1^2 + Z2^2 + Z3^2)",
    ),
    "cohomology-omega": (
        ["cohomology", "--N", "4", "--c", "1", "--e", "6", "--ell", "2,1"],
        _first_rule_rejects,
        "kernel basis of H^4(Omega~^(1,0)(-18)) has nonzero image under "
        "mulF *(Z0^6 + Z1^6 + Z2^6 + Z3^6 + Z4^6)",
    ),
    "curve": (
        ["curve", "--e", "4", "--P", "Z0"],
        _first_rule_rejects,
        f"kernel basis of H^2(Omega~^(0)(-8)) has nonzero image under {FERMAT4}",
    ),
    "jump": (
        JUMP,
        _first_rule_rejects,
        "kernel basis at alpha=(0, 0), beta=(0, 0) has nonzero image under mulF *(5*Z0^4)",
    ),
    "jump-origin": (JUMP, _origin_off_by_one, "dimension 1 at the origin is not C(4, 4) = 2"),
    "euler-cross-check": (
        # two positive-degree limit factors, so omega runs the cross-check
        ["cohomology", "--N", "3", "--c", "1", "--e", "3", "--ell", "2,2", "--a", "1"],
        _euler_off_by_one,
        "contraction-kernel intersection has dim 931 but the chained exhaustion "
        "gives 932 on H^3(Omega~^(1,1)(-8))",
    ),
    "witness-membership": (
        ["witness", "--setting", "(N=4; e=5,5; L0=; L1=; L2=2)", "--P", "1"],
        _first_rule_rejects,
        "witness has nonzero image under mulF *(Z0^5 + Z1^5 + Z2^5 + Z3^5 + Z4^5); "
        "this indicates an implementation bug",
    ),
}


@pytest.mark.parametrize("argv, plant, reason", SELF_CHECKS.values(), ids=SELF_CHECKS)
def test_failed_self_check_exits_2_with_its_reason_and_no_report(
    argv, plant, reason, monkeypatch, capsys, tmp_path
):
    # every self-check of the computation fails one way: exit 2, one line
    # that gives the reason, and no report
    plant(monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"verification failed: {reason}"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("c", [0, -1, 4])
def test_codimension_out_of_range_exits_1(c, capsys, tmp_path):
    out = tmp_path / "r.json"
    argv = ["cohomology", "--N", "4", "--c", str(c), "--e", "5", "--ell", "2", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: codimension {c} out of range for N=4"]
    assert not out.exists()


with open(os.path.join(REPO, "tests", "fixtures", "golden_reports.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize(
    "argv", [entry["argv"] for entry in GOLDEN["reports"]], ids=lambda argv: " ".join(argv)
)
def test_report_matches_golden_digest(tmp_path, argv):
    # the digests pin every field but wall_time, bases included, so a change
    # that alters any report fails here
    code, rep, err = run_cli(argv, tmp_path / "r.json")
    assert code == 0, err
    jsonschema.validate(rep, SCHEMA)  # four print a basis, one a class as rows
    canonical = json.dumps(strip_wall_time(rep), sort_keys=True, separators=(",", ":"))
    expected = next(e["sha256"] for e in GOLDEN["reports"] if e["argv"] == argv)
    assert hashlib.sha256(canonical.encode()).hexdigest() == expected


def test_run_leaves_the_basis_cache_empty(tmp_path, monkeypatch):
    # bases, index maps and shift tables are dropped when a command ends
    sizes = []
    original = cli._RUNNERS["cohomology"]

    def runner(cfg):
        payload = original(cfg)
        sizes.append(len(cech._basis_cache))
        return payload

    monkeypatch.setitem(cli._RUNNERS, "cohomology", runner)
    for i, params in enumerate(
        [{"N": 4, "c": 1, "e": [5], "ell": [2]}, {"N": 3, "c": 1, "e": [4], "ell": [2, 1]}]
    ):
        config = cli.RunConfig("cohomology", params=params, out=str(tmp_path / f"{i}.json"))
        assert cli.run(config) == 0
        assert sizes[i] > 0
        assert cech._basis_cache == {}
