"""Run one cotci command with every function in `layers.TARGETS` wrapped.

    python bench/traced_cli.py SPANS_FILE COUNTS_FILE -- <cotci arguments>

Each wrapper records one span (name, start, end, parent span) per call and
keeps it in memory; the spans go to SPANS_FILE and the hook counts to
COUNTS_FILE once the command has finished. A wrapper is installed at every
place a caller looks the function up: the module attribute, each module that
imported the name with `from ... import`, the class attribute for methods,
and the CLI's runner table. The exit status is the command's.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

import layers

spans = []
stack = [-1]
counts = dict.fromkeys(layers.HOOK_COUNTS, 0)
_seen_spaces = set()


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _restrict(args, kwargs, result):
    counts["exactalg.restrict_vectors"] += _arg(args, kwargs, 1, "basis").dim


def _kernel(args, kwargs, result):
    counts["exactalg.kernel_cols"] += _arg(args, kwargs, 0, "matrix").ncols


def _assemble(args, kwargs, result):
    counts["cech.assemble_nnz"] += result.matrix.nnz()


def _basis(kind):
    # A request repeats when the same function was asked for the same space
    # earlier in this process.
    def hook(args, kwargs, result):
        key = (kind, _arg(args, kwargs, 0, "space"))
        counts["cech.basis_requests"] += 1
        if key in _seen_spaces:
            counts["cech.basis_repeats"] += 1
        _seen_spaces.add(key)

    return hook


def _intersect(args, kwargs, result):
    certificate = result[1]
    counts["ci_engine.constraints"] += len(certificate)
    counts["ci_engine.constraints_on_dim0"] += sum(
        1 for entry in certificate if entry["applied_on_dim"] == 0
    )


HOOKS = {
    "cotci.exactalg.apply_to_basis": _restrict,
    "cotci.exactalg.kernel_basis": _kernel,
    "cotci.cech.mul_poly_matrix": _assemble,
    "cotci.cech.mul_dpoly_matrix": _assemble,
    "cotci.cech.euler_contraction_matrix": _assemble,
    "cotci.cech.basis_enumerate": _basis("enumerate"),
    "cotci.cech.basis_index": _basis("index"),
    "cotci.ci_engine.intersect_constraint_kernels": _intersect,
}


def _wrap(fid, fn, hook):
    def wrapper(*args, **kwargs):
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[idx] = (fid, start, perf_counter(), parent)
            stack.pop()
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return wrapper


def install():
    """Wrap every target; returns the names that could not be found."""
    modules = [
        importlib.import_module(name)
        for name in ("cotci.cli", "cotci.ci_engine", "cotci.fermat", "cotci.cech",
                     "cotci.exactalg", "cotci.poly")
    ]
    missing = []
    for fid, (module_name, attr, _, _) in enumerate(layers.TARGETS):
        module = sys.modules[module_name]
        name = layers.NAMES[fid]
        hook = HOOKS.get(name)
        if attr.startswith("_RUNNERS["):
            table = getattr(module, "_RUNNERS", {})
            key = attr[len("_RUNNERS["):-1]
            if key not in table:
                missing.append(name)
                continue
            table[key] = _wrap(fid, table[key], hook)
        elif "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append(name)
                continue
            setattr(cls, meth, _wrap(fid, vars(cls)[meth], hook))
        else:
            original = getattr(module, attr, None)
            if not callable(original):
                missing.append(name)
                continue
            wrapper = _wrap(fid, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    return missing


def main(argv):
    spans_path, counts_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE COUNTS_FILE -- <cotci arguments>")
    missing = install()
    from cotci import cli

    try:
        status = cli.main(cli_args)
    finally:
        layers.write_spans(spans_path, spans)
        with open(counts_path, "w", encoding="utf-8") as fh:
            json.dump({"counts": counts, "missing": missing}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
