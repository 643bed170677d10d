#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cotci command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --held-out ...   # held-out seeds

Run it from anywhere; it finds the repository as the parent of its own
directory and runs `src/` from there. Every command runs in its own
`python -m cotci.cli` process, one after another (a closed loop with one
client). A run repeats the workload's commands until `--seconds` is used up,
at least once, and checks each report against `report.schema.json` and the
frozen answers in `answers.json`.

With `--trace 0` it reports the end-to-end metrics: the median wall time of
one pass over the workload's commands, the median over passes of the largest
peak RSS of a command process, the median start-up time of a fresh
interpreter that imports the CLI and builds its parser, and the share of
commands that passed every check. The set-up time, and the wall time of
workloads of short commands, are given at a reference machine speed (see
`probe`); the clock times are printed beside them. With `--trace 1` each
pass is run twice, plain and then with the layer wrappers of
`traced_cli.py`, and it reports the per-layer metrics of
`layers.PER_LAYER`, averaged over passes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
run context (nproc, Python, CPU model, load average) and each pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "report.schema.json"
ANSWERS = BENCH_DIR / "answers.json"
WORK = ROOT / ".bench_run"
# Set-up launches per run: half before the passes and half after them, so the
# median spans the whole run rather than one moment of the machine's load.
SETUP_SAMPLES = 12
# Seconds `probe` takes at the reference speed the time metrics are given at:
# about what it takes on an unloaded core of the 2-core Xeon host the
# benchmark was tuned on.
REFERENCE_PROBE_S = 0.05
# Children still running this long after the run started are killed, so a
# run ends within three minutes even if a command hangs.
RUN_LIMIT_S = 170


@dataclass(frozen=True)
class Workload:
    """Commands and seeds of a workload; BENCHMARK.json says why it is there."""

    # Seed labels: `--seed N` picks seeds[N % len(seeds)]; `--held-out` picks
    # from held_out instead. "-" means the command gets no --seed.
    seeds: tuple
    held_out: tuple
    argv: object  # seed label -> list of cotci argument lists
    # Whether wall_s is given at the reference speed (see `probe`) rather than
    # in clock seconds. Only for short commands: the probes at the two ends
    # of a command of 15 s or more miss the drift inside it, and on the host
    # the benchmark was tuned on, scaling such a command spread ten runs more
    # than its clock time did (0.28 against 0.24 on jump-e5, 0.31 against
    # 0.22 on cohomology-nonzero).
    at_reference_speed: bool = False


def _seed_flag(label):
    return [] if label == "-" else ["--seed", label]


WORKLOADS = {
    "jump-e5": Workload(
        ("42", "1", "2"),
        ("7",),
        lambda s: [["jump", "--e", "5", "--trials", "1", *_seed_flag(s)]],
    ),
    "cohomology-dim0": Workload(
        ("1", "2", "3"),
        ("4", "-"),
        lambda s: [["cohomology", "--N", "6", "--c", "3", "--e", "4", "--ell", "3",
                    *_seed_flag(s)]],
    ),
    "cohomology-nonzero": Workload(
        ("-", "1", "2"),
        ("3",),
        lambda s: [["cohomology", "--N", "4", "--c", "1", "--e", "6", "--ell", "2,1",
                    *_seed_flag(s)]],
    ),
    "fermat": Workload(
        ("20260811/7", "4/11", "8/5"),
        ("10/9",),
        lambda s: [
            ["fermat-verify", "--N", "4", "--c", "2", "--epsilon", "1", "--e", "9",
             "--a", "0", "--seed", s.split("/")[0]],
            ["baselocus", "--N", "4", "--c", "2", "--epsilon", "1", "--e", "9",
             "--prime", "13", "--seed", s.split("/")[1]],
        ],
        # commands of 1 to 4 s; scaled, ten runs spread 0.09 against 0.18
        at_reference_speed=True,
    ),
}


# ---------------------------------------------------------------------------
# answers


def answer_fields(report):
    """The exact answer of one report; `wall_time` and timings are left out."""
    result = report["result"]
    command = report["command"]
    if command == "jump":
        return {
            "dim_at_origin": result["dim_at_origin"],
            "dims_at_random_parameters": result["dims_at_random_parameters"],
            "degenerate_dim": result["degenerate_case"]["dim"],
        }
    if command == "cohomology":
        return {
            "dim": result["dim"],
            "ambient_dim": result["ambient_dim"],
            "certificate": [[c["rank"], c["applied_on_dim"]] for c in result["constraints"]],
        }
    if command == "fermat-verify":
        return {"all_ok": result["all_ok"]}
    if command == "baselocus":
        digest = hashlib.sha256(
            json.dumps(result["candidate_E"], sort_keys=True).encode()
        ).hexdigest()
        return {
            "counts": result["counts"],
            "jet_points": result["jet_points"],
            "candidate_E_sha256": digest,
            "w_vanishing_failures": result["w_vanishing"]["failures"],
            "nonzero_spot_failures": result["nonzero_spot"]["failures"],
        }
    raise ValueError(f"no answer fields for command {command!r}")


def load_validator():
    import jsonschema

    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def check_report(status, text, expected, validator):
    """Why the command failed, or None when it passed every check."""
    if status != 0:
        return f"exit status {status}"
    try:
        report = json.loads(text)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    errors = sorted(validator.iter_errors(report), key=str)
    if errors:
        return f"report fails the schema: {errors[0].message}"
    try:
        got = answer_fields(report)
    except (KeyError, TypeError, ValueError) as exc:
        return f"answer fields missing: {exc!r}"
    if expected is None:
        return "no frozen answer for this seed"
    if got != expected:
        return f"answer {json.dumps(got)} differs from frozen {json.dumps(expected)}"
    if report["command"] == "baselocus" and (
        got["w_vanishing_failures"] or got["nonzero_spot_failures"]
    ):
        return "base-locus scan reported failures"
    return None


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("COTCI_CAP", None)
    return env


def spawn(argv, stdout_path, env, deadline):
    """Run argv to completion; returns (status, wall seconds, rusage).

    The child's peak RSS and CPU time come from wait4 on that child alone,
    not from RUSAGE_CHILDREN, which is a running maximum over every child
    already reaped. A child still running at `deadline` (a perf_counter
    time) is killed.
    """
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(0.01, deadline - start))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def probe():
    """Seconds taken by a fixed slice of pure-Python work: rational and
    integer arithmetic and dict updates, like the bulk of cotci's.

    A shared host runs the benchmark at a speed that drifts by up to 2x over
    minutes as its neighbours load it, so a whole run can fall in a fast or a
    slow stretch. A short command's wall time divided by the mean time of the
    probes run just before and just after it drifts by a few percent only,
    so short commands can be timed at a reference speed: wall time *
    REFERENCE_PROBE_S / that mean. The probe is benchmark code; a change to
    cotci cannot move it. It runs between commands, never beside one, since
    a second busy process slows the command on such a host.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 12000):
        acc += Fraction(i % 97, i % 89 + 1)
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + i * i % 13
    h = 0
    for i in range(240000):
        h = (h * 31 + i) % 1000003
    return time.perf_counter() - start


class Runner:
    def __init__(self, name, label, work, validator, answers, deadline):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.validator = validator
        self.expected = answers.get(name, {}).get(label)
        self.commands = WORKLOADS[name].argv(label)
        self.attempted = 0
        self.failed = 0
        self.jet_points = 0
        self.probes = [probe()]

    def launch(self, argv, out):
        """Run argv to completion, then the probe; returns (status, wall
        seconds, wall seconds at the reference speed, rusage)."""
        status, wall, usage = spawn(argv, out, self.env, self.deadline)
        self.probes.append(probe())
        speed = REFERENCE_PROBE_S * 2 / (self.probes[-2] + self.probes[-1])
        return status, wall, wall * speed, usage

    def measure_setup(self, count):
        """(wall, wall at the reference speed) of `count` launches of a fresh
        interpreter that imports cotci.cli, builds the parser (`--help`) and
        exits."""
        argv = [sys.executable, "-m", "cotci.cli", "--help"]
        samples = []
        for _ in range(count):
            status, wall, scaled, _ = self.launch(argv, self.work / "setup.out")
            if status != 0:
                raise SystemExit(f"setup: `cotci --help` exited with {status}")
            samples.append((wall, scaled))
        return samples

    def one_pass(self, traced):
        """Run every command of the workload once; returns the pass record."""
        record = {"wall": 0.0, "scaled": 0.0, "cpu": 0.0, "rss_mb": 0.0, "traces": []}
        for i, args in enumerate(self.commands):
            tag = f"{'t' if traced else 'u'}{self.attempted}"
            out = self.work / f"{tag}.json"
            if traced:
                spans, counts = self.work / f"{tag}.spans", self.work / f"{tag}.counts"
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                        str(spans), str(counts), "--", *args]
            else:
                argv = [sys.executable, "-m", "cotci.cli", *args]
            status, wall, scaled, usage = self.launch(argv, out)
            self.attempted += 1
            text = out.read_text(encoding="utf-8", errors="replace")
            expected = self.expected[i] if self.expected else None
            problem = check_report(status, text, expected, self.validator)
            if problem:
                self.failed += 1
                err = Path(str(out) + ".err").read_text(encoding="utf-8", errors="replace")
                print(f"FAILED {' '.join(args)}: {problem}\n{err[-2000:]}", file=sys.stderr)
            elif args[0] == "baselocus":
                self.jet_points = json.loads(text)["result"]["jet_points"]
            record["wall"] += wall
            record["scaled"] += scaled
            record["cpu"] += usage.ru_utime + usage.ru_stime
            record["rss_mb"] = max(record["rss_mb"], usage.ru_maxrss / 1024)
            if traced:
                # a process that died before writing its spans is all unattributed
                record["traces"].append((wall, spans, counts) if spans.is_file() else (wall,))
        return record


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(trace_passes, plain_passes, jet_points):
    """Per-pass averages of the per-layer metrics.

    Raises when a command's spans are malformed (see `layers.check_spans`) or
    outlast its process. With those checks passed, the self-time metrics and
    `trace.unattributed_s` are non-negative and add up to `trace.wall_s`.
    """
    totals = dict.fromkeys((m for m, _ in layers.PER_LAYER), 0.0)
    index = {name: i for i, name in enumerate(layers.NAMES)}
    hook = dict.fromkeys(layers.HOOK_COUNTS, 0)
    calls = [0] * len(layers.NAMES)
    missing = set()
    for record in trace_passes:
        totals["cli.cpu_s"] += record["cpu"]
        totals["cli.wait_s"] += record["wall"] - record["cpu"]
        totals["trace.wall_s"] += record["wall"]
        for wall, *files in record["traces"]:
            if not files:
                totals["trace.unattributed_s"] += wall
                continue
            spans_path, counts_path = files
            side = json.loads(Path(counts_path).read_text(encoding="utf-8"))
            missing.update(side["missing"])
            for key, value in side["counts"].items():
                hook[key] += value
            cols = layers.read_spans(spans_path)
            if not cols[0]:
                # the command stopped before cli.run, e.g. on a usage error
                totals["trace.unattributed_s"] += wall
                continue
            try:
                summary = layers.summarize_command(*cols)
            except ValueError as exc:
                raise RuntimeError(f"{spans_path.name}: {exc}") from None
            for fid, (_, _, metric, _) in enumerate(layers.TARGETS):
                totals[metric] += summary["self_s"][fid]
                calls[fid] += summary["calls"][fid]
            if summary["root_s"] > wall:
                raise RuntimeError("spans outlast the traced process")
            totals["trace.unattributed_s"] += wall - summary["root_s"]
    for metric, names in layers.CALL_COUNTS.items():
        totals[metric] = sum(calls[index[n]] for n in names)
    for key in ("exactalg.restrict_vectors", "exactalg.kernel_cols",
                "cech.assemble_nnz", "ci_engine.constraints"):
        totals[key] = hook[key]
    n = len(trace_passes)
    out = {metric: totals[metric] / n for metric, _ in layers.PER_LAYER}
    out["cech.basis_repeat_ratio"] = (
        hook["cech.basis_repeats"] / hook["cech.basis_requests"]
        if hook["cech.basis_requests"] else 0.0
    )
    out["ci_engine.wasted_constraint_ratio"] = (
        hook["ci_engine.constraints_on_dim0"] / hook["ci_engine.constraints"]
        if hook["ci_engine.constraints"] else 0.0
    )
    out["fermat.jet_points"] = jet_points
    out["trace.overhead_s"] = (
        sum(r["wall"] for r in trace_passes) - sum(r["wall"] for r in plain_passes)
    ) / n
    hit = {name: calls[i] for i, name in enumerate(layers.NAMES)}
    return out, hit, sorted(missing)


def coverage_problems(workload, hit, missing):
    """Wrapped names that are gone from the code, or that this workload
    should reach and did not."""
    problems = [f"{name}: not found in the code" for name in missing]
    for (_, _, _, assigned), name in zip(layers.TARGETS, layers.NAMES):
        if assigned == workload and name not in missing and not hit[name]:
            problems.append(f"{name}: never called on {workload}")
    return problems


# ---------------------------------------------------------------------------
# running a workload


def context():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
    }


def run_workload(name, label, seconds, trace, work, validator, answers):
    deadline = time.perf_counter() + RUN_LIMIT_S
    runner = Runner(name, label, work, validator, answers, deadline)
    if not trace:
        runner.measure_setup(1)  # warms the file cache
        setup = runner.measure_setup(SETUP_SAMPLES // 2)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        record = runner.one_pass(traced=False)
        plain.append(record)
        if trace:
            traced.append(runner.one_pass(traced=True))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(plain)
        print(json.dumps({"pass": len(plain), "wall_s": record["wall"],
                          "cpu_s": record["cpu"], "peak_rss_mb": record["rss_mb"],
                          **({"traced_wall_s": traced[-1]["wall"]} if trace else {})}))
        if elapsed + per_pass > seconds:
            break
    if not trace:
        setup += runner.measure_setup(SETUP_SAMPLES - len(setup))
    failed_ops = runner.failed / runner.attempted
    print(json.dumps({"workload": name, "seed": label, "passes": len(plain),
                      "failed_ops": failed_ops,
                      "clock_wall_s": statistics.median(r["wall"] for r in plain),
                      **({} if trace else
                         {"clock_setup_s": statistics.median(w for w, _ in setup)}),
                      "probe_s": statistics.median(runner.probes)}))
    correct = runner.failed == 0
    if trace:
        values, hit, missing = layer_metrics(traced, plain, runner.jet_points)
        problems = coverage_problems(name, hit, missing)
        for problem in problems:
            print(f"coverage: {problem}", file=sys.stderr)
        ranked = sorted(layers.TIME_METRICS, key=values.get, reverse=True)
        print(json.dumps({"dominant_layers": {m: values[m] for m in ranked[:3]},
                          "tracing_overhead_s": values["trace.overhead_s"],
                          "coverage_problems": problems}))
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in layers.PER_LAYER}
    else:
        wall_key = "scaled" if WORKLOADS[name].at_reference_speed else "wall"
        metrics = {
            "wall_s": {"value": statistics.median(r[wall_key] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in plain),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
            "ok_ops": {"value": 1.0 - failed_ops, "unit": "ratio"},
        }
    return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="take the seed from the held-out list")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cotci" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no cotci sources under {ROOT}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = WORKLOADS[args.workload]
        labels = wl.held_out if args.held_out else wl.seeds
        label = labels[args.seed % len(labels)]
        answers = json.loads(ANSWERS.read_text(encoding="utf-8"))
        print(json.dumps({"context": context()}))
        result = run_workload(args.workload, label, args.seconds, bool(args.trace),
                              work, load_validator(), answers)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
