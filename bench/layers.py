"""Layer table of the benchmark: which cotci functions are wrapped in a traced
run, which metric each one's self time is booked to, and how recorded spans
turn into per-layer metrics.

The table is plain data so that `run.py` can read it without
importing cotci; only `traced_cli.py`, which runs inside the command process,
installs the wrappers.
"""

from __future__ import annotations

from array import array
from pathlib import Path

# A target is (module, attribute, time metric, workload that must hit it or
# None).
# The attribute is a module-level name, `Class.method`, or `_RUNNERS[key]`
# for the command bodies the CLI dispatches through its runner table. The self
# time of every span is booked to exactly one time metric, so the time metrics
# below plus `trace.unattributed_s` add up to the traced wall time.
TARGETS = [
    # cli: `run` is the root span of every command; its self time is report
    # assembly and writing, the command bodies are their own spans.
    ("cotci.cli", "run", "cli.report_s", "jump-e5"),
    ("cotci.cli", "_RUNNERS[jump]", "cli.command_s", "jump-e5"),
    ("cotci.cli", "_RUNNERS[cohomology]", "cli.command_s", "cohomology-dim0"),
    ("cotci.cli", "_RUNNERS[fermat-verify]", "cli.command_s", "fermat"),
    ("cotci.cli", "_RUNNERS[baselocus]", "cli.command_s", "fermat"),
    # exactalg
    ("cotci.exactalg", "apply_to_basis", "exactalg.restrict_s", "jump-e5"),
    ("cotci.exactalg", "kernel_basis", "exactalg.kernel_s", "cohomology-dim0"),
    ("cotci.exactalg", "combine_basis", "exactalg.combine_s", "jump-e5"),
    ("cotci.exactalg", "rref_vectors", "exactalg.rref_s", "cohomology-nonzero"),
    ("cotci.exactalg", "rank", "exactalg.rank_s", "fermat"),
    ("cotci.exactalg", "SpanReducer.__init__", "exactalg.span_s", "fermat"),
    ("cotci.exactalg", "SpanReducer.reduce", "exactalg.span_s", "fermat"),
    # cech
    ("cotci.cech", "mul_poly_matrix", "cech.assemble_s", "cohomology-dim0"),
    ("cotci.cech", "mul_dpoly_matrix", "cech.assemble_s", "cohomology-dim0"),
    ("cotci.cech", "euler_contraction_matrix", "cech.assemble_s", "cohomology-nonzero"),
    ("cotci.cech", "basis_enumerate", "cech.basis_s", "jump-e5"),
    ("cotci.cech", "basis_index", "cech.basis_s", "jump-e5"),
    ("cotci.cech", "apply_poly", "cech.apply_s", "fermat"),
    ("cotci.cech", "apply_dpoly", "cech.apply_s", "fermat"),
    # ci_engine
    ("cotci.ci_engine", "intersect_constraint_kernels", "ci_engine.intersect_s", "cohomology-dim0"),
    ("cotci.ci_engine", "omega_cohomology", "ci_engine.other_s", "cohomology-dim0"),
    ("cotci.ci_engine", "tilde_cohomology", "ci_engine.other_s", "cohomology-dim0"),
    ("cotci.ci_engine", "tilde_constraints", "ci_engine.other_s", "cohomology-dim0"),
    ("cotci.ci_engine", "euler_constraints", "ci_engine.other_s", "cohomology-nonzero"),
    # The multi-factor Euler cross-check runs only when two or more limit
    # factors have positive degree; none of the four workloads reaches it.
    ("cotci.ci_engine", "euler_image", "ci_engine.other_s", None),
    ("cotci.ci_engine", "jump_experiment", "ci_engine.other_s", "jump-e5"),
    ("cotci.ci_engine", "jump_dimension", "ci_engine.other_s", "jump-e5"),
    # fermat
    ("cotci.fermat", "form_determinant", "fermat.det_s", "fermat"),
    ("cotci.fermat", "glue_reducer_for", "fermat.glue_s", "fermat"),
    ("cotci.fermat", "verify_glue", "fermat.glue_s", "fermat"),
    ("cotci.fermat", "base_locus_scan", "fermat.scan_s", "fermat"),
    ("cotci.fermat", "random_fermat_system", "fermat.other_s", "fermat"),
    ("cotci.fermat", "verify_kernel_membership", "fermat.other_s", "fermat"),
    ("cotci.fermat", "affine_form", "fermat.other_s", "fermat"),
    # poly
    ("cotci.poly", "_PolyBase.evaluate", "poly.evaluate_s", "fermat"),
    ("cotci.poly", "_PolyBase.scaled", "poly.arith_s", "fermat"),
    ("cotci.poly", "HomogPoly.__add__", "poly.arith_s", "fermat"),
    ("cotci.poly", "HomogPoly.__mul__", "poly.arith_s", "fermat"),
    ("cotci.poly", "HomogPoly.partial_derivative", "poly.arith_s", "jump-e5"),
    ("cotci.poly", "AffinePoly.__add__", "poly.arith_s", "fermat"),
    ("cotci.poly", "AffinePoly.__mul__", "poly.arith_s", "fermat"),
    ("cotci.poly", "AffinePoly.partial_derivative", "poly.arith_s", "fermat"),
]

NAMES = [f"{module}.{attr}" for module, attr, _, _ in TARGETS]

# Self-time buckets, in report order. Together with trace.unattributed_s they
# partition the traced wall time.
TIME_METRICS = list(dict.fromkeys(metric for _, _, metric, _ in TARGETS))

# Counts recorded by hooks inside the command process (see traced_cli.py).
HOOK_COUNTS = [
    "exactalg.restrict_vectors",
    "exactalg.kernel_cols",
    "cech.assemble_nnz",
    "cech.basis_requests",
    "cech.basis_repeats",
    "ci_engine.constraints",
    "ci_engine.constraints_on_dim0",
]

# Counts read off the number of spans of the named functions.
CALL_COUNTS = {
    "exactalg.rank_calls": ["cotci.exactalg.rank"],
    "cech.assemble_calls": [
        "cotci.cech.mul_poly_matrix",
        "cotci.cech.mul_dpoly_matrix",
        "cotci.cech.euler_contraction_matrix",
    ],
    "poly.evaluate_calls": ["cotci.poly._PolyBase.evaluate"],
}

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    [(m, "s") for m in TIME_METRICS]
    + [
        ("exactalg.restrict_vectors", "count"),
        ("exactalg.kernel_cols", "count"),
        ("exactalg.rank_calls", "count"),
        ("cech.assemble_calls", "count"),
        ("cech.assemble_nnz", "count"),
        ("cech.basis_repeat_ratio", "ratio"),
        ("ci_engine.constraints", "count"),
        ("ci_engine.wasted_constraint_ratio", "ratio"),
        ("fermat.jet_points", "count"),
        ("poly.evaluate_calls", "count"),
        ("cli.cpu_s", "s"),
        ("cli.wait_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def write_spans(path: Path, spans):
    """Spans are (name index, start, end, parent index or -1) tuples."""
    names, starts, ends, parents = array("i"), array("d"), array("d"), array("i")
    for name, start, end, parent in spans:
        names.append(name)
        starts.append(start)
        ends.append(end)
        parents.append(parent)
    with open(path, "wb") as fh:
        array("q", [len(spans)]).tofile(fh)
        for arr in (names, starts, ends, parents):
            arr.tofile(fh)


def read_spans(path: Path):
    with open(path, "rb") as fh:
        count = array("q")
        count.fromfile(fh, 1)
        n = count[0]
        cols = []
        for code in ("i", "d", "d", "i"):
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    return cols


ROOT = NAMES.index("cotci.cli.run")


def check_spans(names, starts, ends, parents):
    """Raise ValueError unless the spans of one command form a single tree
    rooted at `cli.run` in which every child lies inside its parent and
    siblings do not overlap.

    Spans are numbered in the order their calls began, so a parent comes
    before its children and siblings come in time order. When these checks
    hold, every self time is non-negative and the self times of a command
    partition its root span.
    """
    roots = [i for i, p in enumerate(parents) if p < 0]
    if len(roots) != 1 or names[roots[0]] != ROOT:
        raise ValueError(f"expected one root span cotci.cli.run, got {len(roots)} roots"
                         f" ({', '.join(NAMES[names[i]] for i in roots[:3])})")
    child_end = {}  # parent -> end of its latest child so far
    for i, p in enumerate(parents):
        if p < 0:
            continue
        if not (p < i and starts[p] <= starts[i] <= ends[i] <= ends[p]):
            raise ValueError(f"span {i} ({NAMES[names[i]]}) is not inside its parent {p}")
        if starts[i] < child_end.get(p, starts[p]):
            raise ValueError(f"span {i} ({NAMES[names[i]]}) overlaps an earlier sibling")
        child_end[p] = ends[i]


def self_times(names, starts, ends, parents):
    """Per-span self time: its duration minus the durations of its children
    (which `check_spans` has shown to be disjoint and inside it)."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def summarize_command(names, starts, ends, parents):
    """Per-name span count and self time for one process, plus the duration
    of its root span; raises ValueError when the spans are malformed."""
    check_spans(names, starts, ends, parents)
    own = self_times(names, starts, ends, parents)
    calls = [0] * len(NAMES)
    self_s = [0.0] * len(NAMES)
    for i, name in enumerate(names):
        calls[name] += 1
        self_s[name] += own[i]
    root = parents.index(-1)
    return {"calls": calls, "self_s": self_s, "root_s": ends[root] - starts[root]}
