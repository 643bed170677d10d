"""Self-checks of the benchmark.

    python3 -m pytest -q bench/test_bench.py

The traced-workload tests run every workload once with the layer wrappers
(about two minutes in all). They fail when a wrapped function has been
renamed or removed, or when a workload no longer reaches a function the
layer table assigns to it, so a refactor cannot silently zero a layer metric.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402


def test_every_wrapped_name_exists():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import traced_cli; print(traced_cli.install())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(run.BENCH_DIR), str(run.SRC)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_layer_table_is_consistent():
    assert len(set(layers.NAMES)) == len(layers.NAMES)
    assert {w for *_, w in layers.TARGETS} <= set(run.WORKLOADS) | {None}
    per_layer = [m for m, _ in layers.PER_LAYER]
    assert len(set(per_layer)) == len(per_layer)
    assert set(layers.TIME_METRICS) <= set(per_layer)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in bench["per_layer"]] == per_layer
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_children():
    # cli.run 0..10 with children 1..4 and 5..9; the second has a child 6..7
    root = layers.ROOT
    names = [root, 1, 2, 1]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert layers.self_times(names, starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]
    summary = layers.summarize_command(names, starts, ends, parents)
    assert summary["root_s"] == 10.0
    assert [summary["calls"][i] for i in (root, 1, 2)] == [1, 2, 1]
    assert [summary["self_s"][i] for i in (root, 1, 2)] == [3.0, 4.0, 3.0]


@pytest.mark.parametrize("names, starts, ends, parents, why", [
    ([layers.ROOT, 1], [0.0, 1.0], [10.0, 2.0], [-1, -1], "root"),
    ([1], [0.0], [10.0], [-1], "root"),
    ([layers.ROOT, 1], [0.0, 9.0], [10.0, 11.0], [-1, 0], "inside"),
    ([layers.ROOT, 1], [1.0, 0.5], [10.0, 2.0], [-1, 0], "inside"),
    ([layers.ROOT, 1, 2], [0.0, 1.0, 3.0], [10.0, 4.0, 5.0], [-1, 0, 0], "overlaps"),
])
def test_malformed_spans_are_rejected(names, starts, ends, parents, why):
    with pytest.raises(ValueError, match=why):
        layers.summarize_command(names, starts, ends, parents)


def test_spans_round_trip(tmp_path):
    spans = [(3, 0.5, 2.0, -1), (4, 0.75, 1.0, 0)]
    layers.write_spans(tmp_path / "s", spans)
    cols = layers.read_spans(tmp_path / "s")
    assert list(zip(*cols)) == spans


def test_answers_cover_every_shipped_seed():
    answers = json.loads(run.ANSWERS.read_text(encoding="utf-8"))
    for name, wl in run.WORKLOADS.items():
        assert set(answers[name]) == set(wl.seeds + wl.held_out)
        for label in wl.seeds + wl.held_out:
            assert len(answers[name][label]) == len(wl.argv(label))


def _jump_report(dim_at_origin):
    return json.dumps({
        "artifact_version": "0", "command": "jump", "parameters": {}, "wall_time": 1.0,
        "result": {"e": 5, "seed": 42, "dim_at_origin": dim_at_origin,
                   "dims_at_random_parameters": [0],
                   "degenerate_case": {"dim": 0}},
    })


def test_check_report_catches_each_failure():
    validator = run.load_validator()
    expected = {"dim_at_origin": 1, "dims_at_random_parameters": [0], "degenerate_dim": 0}
    assert run.check_report(0, _jump_report(1), expected, validator) is None
    assert "differs" in run.check_report(0, _jump_report(2), expected, validator)
    assert "exit status" in run.check_report(2, _jump_report(1), expected, validator)
    assert "schema" in run.check_report(0, _jump_report(-1), expected, validator)
    assert "not JSON" in run.check_report(0, "Traceback", expected, validator)
    assert "no frozen" in run.check_report(0, _jump_report(1), None, validator)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in run.BENCH_DIR.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (bench / "answers.json").write_bytes(run.ANSWERS.read_bytes())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fermat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_workload_covers_its_layers(workload):
    answers = json.loads(run.ANSWERS.read_text(encoding="utf-8"))
    label = run.WORKLOADS[workload].seeds[0]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as work:
        runner = run.Runner(workload, label, Path(work), run.load_validator(), answers,
                            deadline=time.perf_counter() + run.RUN_LIMIT_S)
        plain = [runner.one_pass(traced=False)]
        traced = [runner.one_pass(traced=True)]
        # layer_metrics raises on malformed spans
        values, hit, missing = run.layer_metrics(traced, plain, runner.jet_points)
    assert runner.failed == 0
    assert run.coverage_problems(workload, hit, missing) == []
    # layer_metrics has checked the spans, so every part is non-negative and
    # the parts add up to the traced wall time
    parts = [values[m] for m in layers.TIME_METRICS] + [values["trace.unattributed_s"]]
    assert min(parts) >= 0
    assert sum(parts) == pytest.approx(values["trace.wall_s"], rel=1e-9)
