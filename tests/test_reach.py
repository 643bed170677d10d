"""Every function under src/ is run by some command.

The README's `cotci …` examples, and two commands that end in the CLI's two
error paths, run in this process under `sys.setprofile`, which sees each call
of a Python function. Every function that `ast` finds in `src/cotci/*.py`
must have been called by one of them; code that only tests use belongs under
tests/. Dunders other than `__init__` and `__post_init__` are left out, since
the interpreter calls them from places no command names.
"""

import ast
import contextlib
import io
import os
import shlex
import sys

from cotci import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(os.path.abspath(cli.__file__))

# Functions no command calls, each kept for its reason.
KEPT = {
    "ci_engine.jacobian_spot_check": "the README documents it as a library audit",
    "exactalg.SparseMatrix.nnz": "the benchmark's assembly hook reads it",
}

# Lower trial counts: the same code runs, just fewer times.
TRIALS = {"jump": "1", "probes": "10"}

# A polynomial that does not parse ends in the report loop's error branch; a
# flag that `curve` does not take ends in the parser's.
ERROR_COMMANDS = [
    ["curve", "--e", "4", "--P", "1/0*Z0"],
    ["curve", "--e", "4", "--P", "Z0", "--seed", "1"],
]


def readme_commands():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        lines = [line for line in fh if line.startswith("cotci ")]
    commands = []
    for line in lines:
        argv = shlex.split(line)[1:]
        if "--trials" in argv:
            argv[argv.index("--trials") + 1] = TRIALS[argv[0]]
        commands.append(argv)
    return commands


def called_code():
    """The (file, first line) of every code object the commands call, and
    the commands' exit statuses."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    statuses = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in readme_commands() + ERROR_COMMANDS:
            sys.setprofile(profile)
            try:
                statuses.append(cli.main(argv))
            except SystemExit as exc:
                statuses.append(exc.code)
            finally:
                sys.setprofile(None)
    return {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in seen}, statuses


def defined_functions():
    """{qualified name: (file, first line)} of every function under src/.

    The first line is the one `co_firstlineno` gives: the first decorator's
    line when the function has decorators, else the `def` line."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[qual] = (path, first)
                    walk(child, qual)
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}.{child.name}")
                else:
                    walk(child, prefix)

        walk(tree, name[:-3])
    return found


def is_exempt_dunder(qual):
    leaf = qual.rsplit(".", 1)[-1]
    dunder = leaf.startswith("__") and leaf.endswith("__")
    return dunder and leaf not in ("__init__", "__post_init__")


def test_every_src_function_is_run_by_a_command():
    called, statuses = called_code()
    # the examples succeed, the two error commands exit 1
    assert statuses == [0] * (len(statuses) - 2) + [1, 1]
    functions = {q: where for q, where in defined_functions().items() if not is_exempt_dunder(q)}
    assert set(KEPT) <= set(functions)
    unreached = {q for q, where in functions.items() if where not in called}
    assert sorted(unreached - set(KEPT)) == [], "no command calls these"
    assert sorted(set(KEPT) - unreached) == [], "a command calls these: drop them from KEPT"
