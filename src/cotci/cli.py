"""Batch command-line front end.

One command per process; every run is deterministic given its parameters and
seed and emits a JSON report with a fixed header. Exit codes: 0 success,
1 usage or validation error, 2 verification failure (an assertion-style check
in the requested computation came back false).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import __version__
from . import cech, ci_engine, fermat as fermat_mod, lambdacalc as lam
from .cech import BasisCapExceeded
from .poly import (
    HomogPoly,
    MinorVanishingError,
    PolyParseError,
    deformed_fermat_pair,
    fermat_generic_system,
    parse_poly,
    vandermonde_coeff_rows,
)
from .rng import SplitMix64

class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    params: dict = dc_field(default_factory=dict)
    out: str | None = None
    include_basis: bool = False

    def __post_init__(self):
        if self.command not in _RUNNERS:
            raise UsageError(f"unknown command {self.command!r}")


def _resolve_poly(value, nvars=None):
    """Inline text, or a path to a file holding the polynomial."""
    if value is None:
        raise UsageError("missing polynomial argument")
    if os.path.isfile(value):
        with open(value, "r", encoding="utf-8") as fh:
            value = fh.read()
    return parse_poly(value, nvars=nvars)


def _int_list(text):
    return [int(x) for x in str(text).split(",") if x.strip() != ""]


def _fraction_pair(text, flag):
    parts = [x.strip() for x in str(text).split(",")]
    if len(parts) != 2:
        raise UsageError(f"{flag} wants two comma-separated rationals")
    try:
        return (Fraction(parts[0]), Fraction(parts[1]))
    except ZeroDivisionError:
        raise UsageError(f"{flag} has a zero denominator") from None


# ---------------------------------------------------------------------------
# command bodies: return (payload, verified_ok)


def _run_curve(cfg: RunConfig):
    e = cfg.params["e"]
    if cfg.params.get("F"):
        F = _resolve_poly(cfg.params["F"], nvars=3)
        if F.degree != e:
            raise UsageError(f"--F has degree {F.degree}, expected {e}")
    else:
        F = HomogPoly(3, {(e, 0, 0): 1, (0, e, 0): 1, (0, 0, e): 1})
    P = _resolve_poly(cfg.params["P"], nvars=3)
    descent = ci_engine.plane_curve_descent(F, P)
    ci = ci_engine.CompleteIntersectionInput(2, [F])
    setting = lam.LambdaSetting(2, (e,), ((), (1,)))
    result = ci_engine.tilde_cohomology(ci, setting, 0)
    genus = (e - 1) * (e - 2) // 2
    # the genus formula holds for a smooth curve, the paper's first check
    ok = (
        descent["euler_identity"]
        and descent["descent_top_identity"]
        and descent["descent_pair_identity"]
        and ci_engine.verify_result(result)
        and result.dim == genus
    )
    payload = {
        "F": F.to_text(),
        "dim": result.dim,
        "genus_formula": genus,
        "descent": descent,
        "verified": ok,
    }
    return payload, ok


def _build_equations(cfg: RunConfig, N, c, degrees):
    seed = cfg.params.get("seed")
    # a flag the chosen construction does not read is an error, not a no-op
    if cfg.params.get("alpha") is not None or cfg.params.get("beta") is not None:
        if seed is not None:
            raise UsageError("--seed is not read with --alpha/--beta: the deformed pair is fixed")
        if (N, c) != (4, 2):
            raise UsageError("--alpha/--beta describe the 5-variable deformed pair (N=4, c=2)")
        alpha = cfg.params.get("alpha") or (Fraction(0), Fraction(0))
        beta = cfg.params.get("beta") or (Fraction(0), Fraction(0))
        avec = cfg.params.get("avec") or [0, 1, 2, 3, 4]
        e = degrees[0]
        if any(d != e for d in degrees):
            raise UsageError("the deformed pair has a single degree")
        return list(deformed_fermat_pair(e, alpha, beta, avec))
    if cfg.params.get("avec") is not None:
        raise UsageError("--avec is read only with --alpha/--beta")
    if seed is None:
        return fermat_generic_system(N, degrees, vandermonde_coeff_rows(N, c))
    rng = SplitMix64(seed)
    while True:
        rows = [[Fraction(rng.nonzero_coeff()) for _ in range(N + 1)] for _ in range(c)]
        try:
            return fermat_generic_system(N, degrees, rows)
        except MinorVanishingError:
            pass


def _run_cohomology(cfg: RunConfig):
    N = cfg.params["N"]
    c = cfg.params["c"]
    degrees = cfg.params["e"]
    if len(degrees) == 1:
        degrees = degrees * c
    if len(degrees) != c:
        raise UsageError(f"--e wants 1 or {c} degrees")
    eqs = _build_equations(cfg, N, c, degrees)
    ci = ci_engine.CompleteIntersectionInput(N, eqs)
    a = cfg.params.get("a", 0)
    setting_text = cfg.params.get("setting")
    if setting_text:
        setting = lam.parse_setting(setting_text)
        if setting.is_simple():
            result = ci_engine.tilde_cohomology(ci, setting, a)
            payload = result.to_json_dict(include_basis=cfg.include_basis)
            payload["mode"] = "tilde"
            payload["setting"] = setting.serialize()
            return payload, ci_engine.verify_result(result)
        bound = ci_engine.simplify_and_bound(ci, setting, a)
        payload = bound.result.to_json_dict(include_basis=cfg.include_basis)
        payload["mode"] = "tilde-lower-bound"
        payload["setting"] = setting.serialize()
        payload["simplified_setting"] = bound.setting.serialize()
        return payload, ci_engine.verify_result(bound.result)
    ells = cfg.params.get("ell")
    if not ells:
        raise UsageError("--ell (or --setting) is required")
    mode = "tilde" if cfg.params.get("tilde") else "omega"
    if mode == "omega":
        result = ci_engine.omega_cohomology(ci, tuple(ells), a)
    else:
        setting = lam.LambdaSetting(
            N, tuple(degrees), tuple(() for _ in range(c)) + (tuple(ells),)
        )
        result = ci_engine.tilde_cohomology(ci, setting, a)
    payload = result.to_json_dict(include_basis=cfg.include_basis)
    payload["mode"] = mode
    payload["ell"] = list(ells)
    payload["equations"] = [f.to_text() for f in eqs]
    return payload, ci_engine.verify_result(result)


def _run_witness(cfg: RunConfig):
    setting = lam.parse_setting(cfg.params["setting"])
    a = cfg.params.get("a", 0)
    P = _resolve_poly(cfg.params["P"], nvars=setting.ambient_N + 1)
    res = ci_engine.nonvanishing_witness(setting, a, P)
    payload = {
        "setting": setting.serialize(),
        "a": a,
        "P": P.to_text(),
        "nonzero": res.nonzero,
        "degenerate": res.degenerate,
        "constraints_checked": res.constraints_checked,
        "class": res.cls.to_rows() if cfg.include_basis else res.cls.to_text(),
    }
    return payload, res.nonzero or res.degenerate


def _trials(cfg: RunConfig, default):
    trials = cfg.params.get("trials", default)
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    return trials


def _run_jump(cfg: RunConfig):
    report = ci_engine.jump_experiment(
        cfg.params["e"],
        _trials(cfg, 5),
        cfg.params.get("seed", 0),
        avec=tuple(cfg.params.get("avec") or (0, 1, 2, 3, 4)),
    )
    # a kernel basis that fails its re-check raises RecheckError (exit 2)
    return report, True


def _run_fermat_verify(cfg: RunConfig):
    N = cfg.params["N"]
    c = cfg.params["c"]
    eps = cfg.params.get("epsilon", 0)
    e = cfg.params["e"]
    a = cfg.params.get("a", 0)
    if a < 0:
        raise UsageError(f"--a must be >= 0, got {a}")
    seed = cfg.params.get("seed", 0)
    sys_ = fermat_mod.random_fermat_system(N, c, eps, e, seed)
    n = N - c
    I = tuple(cfg.params.get("I") or range(1, n + 1))
    maxdeg = sys_.max_p_degree(a)
    if maxdeg < 0:
        raise UsageError(f"no numerator degree available: e too small for a={a}")
    if cfg.params.get("P"):
        P = _resolve_poly(cfg.params["P"], nvars=N + 1)
    else:
        P = HomogPoly.variable(N + 1, 0, maxdeg)
    membership = fermat_mod.verify_kernel_membership(sys_, I, P, a)
    # the reducer's elimination is the command's peak of memory, so it runs
    # before the minors and numerators are held
    reducer = fermat_mod.glue_reducer_for(sys_, I, P)
    minors = fermat_mod.letter_minors(sys_, I)
    numerators = fermat_mod.tilde_cocycle(sys_, minors, P)
    glue = {
        f"{ja},{jb}": fermat_mod.verify_glue(sys_, numerators, ja, jb, reducer)
        for ja, jb in itertools.combinations(range(N + 1), 2)
    }
    # Q times the determinant vanishes wherever the determinant does, for
    # every numerator Q, so the check is on the determinant itself
    form = fermat_mod.affine_form(minors[0])
    wvan = {str(i): fermat_mod.vanishes_on_pair(form, i) for i in range(1, N + 1)}
    ok = membership and all(glue.values()) and all(wvan.values())
    payload = {
        "N": N,
        "c": c,
        "epsilon": eps,
        "e": e,
        "a": a,
        "seed": seed,
        "I": list(I),
        "P": P.to_text(),
        "kernel_membership": membership,
        "glue": glue,
        "w_vanishing": wvan,
        "all_ok": ok,
    }
    return payload, ok


def _run_baselocus(cfg: RunConfig):
    N = cfg.params["N"]
    c = cfg.params["c"]
    eps = cfg.params.get("epsilon", 1)
    e = cfg.params["e"]
    sys_ = fermat_mod.random_fermat_system(N, c, eps, e, cfg.params.get("seed", 0))
    report = fermat_mod.base_locus_scan(
        sys_,
        cfg.params.get("a", 0),
        cfg.params["prime"],
        seed=cfg.params.get("seed", 0),
        chart=cfg.params.get("chart", 0),
    )
    ok = report["w_vanishing"]["failures"] == 0 and report["nonzero_spot"]["failures"] == 0
    return report, ok


def _run_probes(cfg: RunConfig):
    report = fermat_mod.genericity_probes(_trials(cfg, 1000), cfg.params.get("seed", 0))
    ok = (
        report["rank_product"]["degeneracies"] == 0
        and report["letter_independence"]["degeneracies"] == 0
        and report["structured_rank"]["degeneracies"] == 0
    )
    return report, ok


_RUNNERS = {
    "curve": _run_curve,
    "cohomology": _run_cohomology,
    "witness": _run_witness,
    "jump": _run_jump,
    "fermat-verify": _run_fermat_verify,
    "baselocus": _run_baselocus,
    "probes": _run_probes,
}


def run(config: RunConfig) -> int:
    """Execute one command and write its report; returns the exit status."""
    started = time.time()
    out_of_memory = False
    try:
        payload, ok = _RUNNERS[config.command](config)
    except (UsageError, PolyParseError, ValueError, BasisCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        ci_engine.EulerCrossCheckError,
        ci_engine.RecheckError,
        ci_engine.WitnessMembershipError,
    ) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # reported below, once the cache and the failed frames are released
        out_of_memory = True
    finally:
        # bases, index maps and shift tables live for one command
        cech._basis_cache.clear()
    if out_of_memory:
        print(f"error: out of memory in {config.command}", file=sys.stderr)
        return 1
    report = {
        "artifact_version": __version__,
        "command": config.command,
        "parameters": {
            k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in sorted(config.params.items())
            if v is not None
        },
        "wall_time": round(time.time() - started, 6),
        "result": payload,
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=str)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not ok:
        print("verification failed", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="cotci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, basis=False):
        # each command gets only the flags its runner reads
        p.add_argument("--out", help="report path (stdout when omitted)")
        if basis:
            p.add_argument("--basis", action="store_true", help="include basis vectors")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("curve", help="plane-curve residue descent and genus")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--P", required=True, help="numerator, inline or file (degree e-3)")
    p.add_argument("--F", help="curve equation (default: diagonal of degree e)")
    common(p, seed=False)

    p = sub.add_parser("cohomology", help="tilde/cotangent cohomology dimensions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--e", required=True, help="degree, or comma list of c degrees")
    p.add_argument("--ell", help="comma list of symmetric powers")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--setting", help="explicit setting, overrides --ell")
    p.add_argument("--tilde", action="store_true", help="tilde variant only")
    p.add_argument("--alpha", help="deformation pair alpha1,alpha2")
    p.add_argument("--beta", help="deformation pair beta1,beta2")
    p.add_argument("--avec", help="five distinct diagonal coefficients a0..a4")
    common(p, basis=True)

    p = sub.add_parser("witness", help="explicit non-vanishing residue witness")
    p.add_argument("--setting", required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--P", required=True)
    common(p, seed=False, basis=True)

    p = sub.add_parser("jump", help="deformation-jump dimensions")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--avec", help="five distinct diagonal coefficients")
    common(p)

    p = sub.add_parser("fermat-verify", help="determinantal cocycle verification")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--epsilon", type=int, default=0)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--P", help="numerator (default: a monomial of maximal degree)")
    p.add_argument("--I", help="comma list of equation indices (default 1..n)")
    common(p)

    p = sub.add_parser("baselocus", help="finite-field base-locus scan")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--epsilon", type=int, default=1)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--chart", type=int, default=0)
    common(p)

    p = sub.add_parser("probes", help="genericity probes for the rank lemmas")
    p.add_argument("--trials", type=int, default=1000)
    common(p)

    return parser


def _config_from_args(args) -> RunConfig:
    params = {}
    for key, value in vars(args).items():
        if key in ("command", "out", "basis") or value is None:
            continue
        if key == "e" and isinstance(value, str):
            params["e"] = _int_list(value)
        elif key in ("ell", "I", "avec"):
            params[key] = _int_list(value)
        elif key in ("alpha", "beta"):
            params[key] = _fraction_pair(value, "--" + key)
        else:
            params[key] = value
    # a malformed cap value is a usage error before any work, for every command
    cech.basis_cap()
    return RunConfig(
        command=args.command,
        params=params,
        out=args.out,
        include_basis=getattr(args, "basis", False),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
